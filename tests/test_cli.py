import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import horocalc
from horocalc import horoboundary
from horocalc.cartan import stabilizer_escape
from horocalc.cli import _jsonable, _parse_range, main
from horocalc.errors import ParseError
from horocalc.groups import full_coordinates, group_from_json, standard_group
from horocalc.metric import DEFAULT_STATE_CAP
from horocalc.reference import brute_force_anagram_offsets, naive_ball


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_census_cli(capsys):
    doc = run_json(capsys, "census", "--group", "h1")
    assert doc["result"]["orbits"] == 8
    assert doc["schema"] == 4
    assert "threads" not in doc
    assert doc["group_hash"]


def test_dist_cli(capsys):
    doc = run_json(capsys, "dist", "--group", "h1", "--word", "")
    assert doc["result"]["length"] == 0
    doc = run_json(capsys, "dist", "--group", "h1", "--word", "x y x~ y~")
    assert doc["result"]["length"] == 4
    assert doc["result"]["certified"]


def test_group_file_loading(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "kind": "heisenberg", "k": 1,
        "generators": [{"label": "x", "coords": [1, 0, 0]},
                       {"label": "y", "coords": [0, 1, 0]}],
    }))
    doc = run_json(capsys, "census", "--group", str(path))
    assert doc["result"]["orbits"] == 8


def test_anagram_cli(capsys):
    doc = run_json(capsys, "anagram", "--group", "h1", "--word", "x y x y")
    offsets = doc["result"]["offsets"]
    assert any(o > 0 for o in offsets) and any(o < 0 for o in offsets)


def test_busemann_cli(capsys):
    doc = run_json(capsys, "busemann", "--group", "h1",
                   "--ray", '{"digitized":[1,2]}',
                   "--element", "x y x~ y~", "--horizon", "8")
    est = doc["result"]["estimate"]
    assert est["value"] == 0 and est["certified"]


def test_busemann_cli_refuses_a_ray_off_every_proper_face(capsys):
    argv = ["busemann", "--group", "h1", "--ray", '{"periodic":{"block":"x y x~ y~"}}',
            "--element", "y", "--horizon", "4"]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "horocalc: the ray's recurring letters lie on no proper face, so it is not geodesic\n")


OFF_FACE_RAY = '{"periodic":{"block":"x y x~ y~"}}'  # commutator block on h1


@pytest.mark.parametrize("argv", [
    ["compare-rays", "--ray1", OFF_FACE_RAY, "--ray2", OFF_FACE_RAY, "--n-max", "1", "--m-max", "4"],
    ["ray", "--ray", OFF_FACE_RAY, "--length", "4"],
])
def test_a_ray_off_every_proper_face_is_refused_at_any_horizon(capsys, argv):
    # its first four letters are geodesic, so only the recurring face refuses it
    assert main([argv[0], "--group", "h1", *argv[1:]]) == 2
    assert capsys.readouterr() == (
        "", "horocalc: the ray's recurring letters lie on no proper face, so it is not geodesic\n")


def test_compare_rays_cli(capsys):
    doc = run_json(capsys, "compare-rays", "--group", "z2",
                   "--ray1", '{"periodic":{"block":"x"}}',
                   "--ray2", '{"periodic":{"block":"x y"}}',
                   "--n-max", "3", "--m-max", "12")
    assert doc["result"]["comparison"]["status"] == "not_found"


def test_ray_and_geodesic_cli(capsys):
    doc = run_json(capsys, "ray", "--group", "cartan",
                   "--ray", '{"digitized":[1,1]}', "--length", "4")
    assert doc["result"]["letters"] == ["y", "x", "x", "y"]
    doc = run_json(capsys, "geodesic-check", "--group", "cartan",
                   "--word", "x y x~ y~")
    assert doc["result"]["geodesic"] is True
    assert doc["result"]["face_certified"] is False


@pytest.mark.parametrize("word, face", [("x y x y", [[0, 1], [1, 0]]), ("", None)])
def test_geodesic_check_reports_the_certifying_face(capsys, word, face):
    res = run_json(capsys, "geodesic-check", "--group", "h1", "--word", word)["result"]
    assert (res["geodesic"], res["face_certified"], res["face"]) == (True, True, face)


@pytest.mark.parametrize("word, geodesic", [("x y x~", True), ("x x~", False)])
def test_geodesic_check_reports_a_searched_word(capsys, word, geodesic):
    res = run_json(capsys, "geodesic-check", "--group", "h1", "--word", word)["result"]
    assert res == {"word": word.split(), "geodesic": geodesic, "face_certified": False,
                   "face": None}


def test_ball_cache_roundtrip(tmp_path, capsys):
    doc = run_json(capsys, "ball", "--group", "h1", "--radius", "4",
                   "--cache", str(tmp_path))
    assert doc["result"]["cache"] == "miss"
    size = doc["result"]["size"]
    doc = run_json(capsys, "ball", "--group", "h1", "--radius", "4",
                   "--cache", str(tmp_path))
    assert doc["result"]["cache"] == "hit"
    assert doc["result"]["size"] == size
    # a different group must not reuse the cache
    doc = run_json(capsys, "ball", "--group", "z2", "--radius", "4",
                   "--cache", str(tmp_path))
    assert doc["result"]["cache"] == "miss"


@pytest.mark.parametrize("damage", ["cut", "no_count", "edited_dist", "not_utf8", "deep_header"])
def test_ball_cache_damaged_file_is_recomputed(tmp_path, capsys, damage):
    argv = ("ball", "--group", "h1", "--radius", "6", "--cache", str(tmp_path))
    assert run_json(capsys, *argv)["result"]["cache"] == "miss"
    (path,) = tmp_path.iterdir()  # the atomic write leaves no temp file behind
    lines = path.read_text().splitlines(keepends=True)
    if damage == "cut":
        lines = lines[: len(lines) // 2]
    elif damage == "no_count":
        header = json.loads(lines[0])
        del header["count"]
        lines[0] = json.dumps(header) + "\n"
    elif damage == "edited_dist":
        # same count, same line structure: only the digest can tell
        rec = json.loads(lines[1])
        rec["dist"] = 7
        lines[1] = json.dumps(rec, sort_keys=True) + "\n"
    elif damage == "deep_header":
        lines[0] = DEEP + "\n"
    path.write_text("".join(lines))
    if damage == "not_utf8":
        path.write_bytes(path.read_bytes().replace(b"{", b"\xff", 1))
    naive = naive_ball(standard_group("h1"), 6)
    spheres = [sum(1 for d in naive.values() if d == r) for r in range(7)]
    res = run_json(capsys, *argv)["result"]
    assert res["cache"] == "invalid"
    assert res["size"] == len(naive) == 593
    assert res["sphere_sizes"] == spheres
    # the rewritten file is trusted again
    res = run_json(capsys, *argv)["result"]
    assert (res["cache"], res["size"], res["sphere_sizes"]) == ("hit", 593, spheres)


@pytest.mark.parametrize("field, value", [("dist", "x"), ("dist", True), ("dist", 99),
                                          ("key", "nested")])
def test_ball_cache_records_of_the_wrong_type_are_recomputed(tmp_path, capsys, field, value):
    argv = ("ball", "--group", "h1", "--radius", "2", "--cache", str(tmp_path))
    assert run_json(capsys, *argv)["result"]["cache"] == "miss"
    (path,) = tmp_path.iterdir()
    header, *records = path.read_text().splitlines(keepends=True)
    rec = json.loads(records[0])
    rec[field] = [rec["key"]] if value == "nested" else value
    records[0] = json.dumps(rec, sort_keys=True) + "\n"
    # count and digest match the edited records: only the record types can tell
    header = json.loads(header)
    header["digest"] = hashlib.sha256("".join(records).encode()).hexdigest()
    path.write_text(json.dumps(header, sort_keys=True) + "\n" + "".join(records))
    res = run_json(capsys, *argv)["result"]
    assert (res["cache"], res["size"]) == ("invalid", len(naive_ball(standard_group("h1"), 2)))


@pytest.mark.parametrize("field, value", [("group_hash", "0" * 64), ("kind", "ball")])
def test_ball_cache_header_for_another_group_or_kind_is_recomputed(tmp_path, capsys, field,
                                                                    value):
    argv = ("ball", "--group", "h1", "--radius", "3", "--cache", str(tmp_path))
    assert run_json(capsys, *argv)["result"]["cache"] == "miss"
    (path,) = tmp_path.iterdir()
    header, body = path.read_text().split("\n", 1)
    header = json.loads(header)
    header[field] = value  # count and digest still match the body
    path.write_text(json.dumps(header, sort_keys=True) + "\n" + body)
    res = run_json(capsys, *argv)["result"]
    assert (res["cache"], res["size"]) == ("invalid", len(naive_ball(standard_group("h1"), 3)))


def test_larger_cached_ball_answers_smaller_radii(tmp_path, capsys):
    cache = ("--cache", str(tmp_path))
    assert run_json(capsys, "ball", "--group", "h1", "--radius", "6", *cache)["result"][
        "cache"] == "miss"
    for radius in ("4", "5"):
        fresh = run_json(capsys, "ball", "--group", "h1", "--radius", radius)["result"]
        res = run_json(capsys, "ball", "--group", "h1", "--radius", radius, *cache)["result"]
        assert res["cache"] == "hit"
        assert (res["radius"], res["size"], res["sphere_sizes"]) == (
            fresh["radius"], fresh["size"], fresh["sphere_sizes"])
    assert len(list(tmp_path.iterdir())) == 1  # a hit writes no file


def test_ball_jsonl_export(tmp_path, capsys):
    out = tmp_path / "ball.jsonl"
    doc = run_json(capsys, "ball", "--group", "z2", "--radius", "2",
                   "--out", str(out), "--format", "jsonl")
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "ball-cache"
    assert len(lines) - 1 == doc["result"]["size"] == 13


# sha256 of the ball files, taken while the writer rewrote a placeholder header
BALL_FILE_DIGESTS = {
    ("h1", "4"): "a3addb2c07322511ec57d1b6ce3f5d09a24c0b62d606352b13bbb8683bf2ccbe",
    ("cartan", "3"): "63cf3960308dca847a0a46855ff87ce702473e0ae5334e089b48c852e7ec7e2a",
}


@pytest.mark.parametrize("group, radius", BALL_FILE_DIGESTS)
def test_ball_cache_files_are_pinned(tmp_path, capsys, group, radius):
    run_json(capsys, "ball", "--group", group, "--radius", radius, "--cache", str(tmp_path))
    (path,) = tmp_path.iterdir()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BALL_FILE_DIGESTS[group, radius]


def test_ball_jsonl_export_is_pinned(tmp_path, capsys):
    out = tmp_path / "ball.jsonl"
    run_json(capsys, "ball", "--group", "z2", "--radius", "2", "--out", str(out),
             "--format", "jsonl")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "2912de4402b0c64a26a154191f2b4705bf94848e094f5fdbc329cf6efe0e60c8")


def test_deterministic_reports(capsys):
    _, out1 = run(capsys, "census", "--group", "h1", "--seed", "5")
    _, out2 = run(capsys, "census", "--group", "h1", "--seed", "5")
    assert out1 == out2
    _, s1 = run(capsys, "selftest", "--seed", "9")
    _, s2 = run(capsys, "selftest", "--seed", "9")
    assert s1 == s2


def test_selftest_passes(capsys, monkeypatch):
    # the switching walks it checks prove steps by the gauge and search others, on every kind:
    # each step evaluates the gauge once, and a step the gauge leaves open searches once
    gauge_evals, searches = {}, {}
    gauge_fn, length = horoboundary._gauge_ceil_fn, horoboundary.word_length

    def counted_gauge_fn(group):
        gauge = gauge_fn(group)

        def counted(v):
            gauge_evals[group.kind] = gauge_evals.get(group.kind, 0) + 1
            return gauge(v)

        return counted

    def counted_length(group, g, budget, state_cap):
        searches[group.kind] = searches.get(group.kind, 0) + 1
        return length(group, g, budget, state_cap)

    monkeypatch.setattr(horoboundary, "_gauge_ceil_fn", counted_gauge_fn)
    monkeypatch.setattr(horoboundary, "word_length", counted_length)
    doc = run_json(capsys, "selftest")
    assert doc["result"]["passed"] is True
    assert all(doc["result"]["checks"].values())
    assert {"horofn_eval_vs_naive", "compare_rays_vs_naive"} <= set(doc["result"]["checks"])
    for kind in ("abelian", "heisenberg", "cartan"):
        assert gauge_evals[kind] > searches[kind] > 0


def test_cartan_audit_cli(capsys):
    doc = run_json(capsys, "cartan-audit", "--audit", "lower",
                   "--direction", "1,1", "--n", "4", "--delta", "2")
    rep = doc["result"]["lower"]
    assert rep["extremal_at_zero"] is True
    assert rep["fitted_m"] == 0


def test_cartan_audit_csv(tmp_path, capsys):
    out = tmp_path / "audit.csv"
    code, _ = run(capsys, "cartan-audit", "--audit", "lower", "--direction", "1,1",
                  "--n", "4", "--delta", "2", "--format", "csv", "--out", str(out))
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0].startswith("delta,")
    assert len(rows) >= 3


# sha256 of stdout, taken while the upper audit kept its own length loop
UPPER_AUDIT_DIGESTS = {
    ("1,1",): "53c0f24b9a890e6341839eff9f12940b86d3592b397864156adfe30961856e1a",
    ("1,2", "--element", "x x y x~ x~ y~", "--n-range", "2,5,6"):
        "4a222951308832f83d6a2d9d7ce426e0b1b1b22a90e3d8207d3179804eb50332",
    ("1,1", "--n-range", "0..8"):
        "44d37386007abfac48c29509d3834b8ba9b7c26406f56c55ceed7cb7e5a1897f",
    ("1,1", "--state-cap", "1"): "27c292fc60a667a9ca9672ba530014e9b28a7bd31640901072690787d319e968",
    ("1,1", "--format", "csv"): "4908631f733f828355a49f6b531735864795a60b486c1614c7eb1acb32e46cc3",
}


@pytest.mark.parametrize("argv", UPPER_AUDIT_DIGESTS, ids=" ".join)
def test_upper_audit_reports_are_pinned(capsys, argv):
    code, out = run(capsys, "cartan-audit", "--audit", "upper", "--direction", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == UPPER_AUDIT_DIGESTS[argv]


# sha256 of stdout, taken while each comparison scanned every (n, m) in turn
COMPARE_RAYS_DIGESTS = {
    ("--group", "h1", "--ray1", '{"digitized":[1,2]}', "--ray2", '{"digitized":[2,1]}',
     "--criterion", "switch1b", "--n-max", "8", "--m-max", "40"):
        "8147275acbc88732b08ffb8ada3467b7b5a97c250593923cc62831979ed5ef09",
    ("--group", "z2", "--ray1", '{"periodic":{"block":"y x"}}',
     "--ray2", '{"periodic":{"block":"x y~"}}', "--n-max", "6", "--m-max", "36"):
        "2308d39450ed2074d3bae65ca812eefb7d13e3ba12b7312c22efbf0b4f71cd66",
    ("--group", "cartan", "--ray1", '{"digitized":[1,1]}', "--ray2", '{"digitized":[-1,-1]}',
     "--criterion", "switch2b", "--slack", "2"):
        "40c9c78aa81c79302dcaf45acc19b63c8756b67cb78e5a40b05fa4346a794009",
}


@pytest.mark.parametrize("argv", COMPARE_RAYS_DIGESTS, ids=["h1-verified", "z2-not-found",
                                                            "cartan-slack-2"])
def test_compare_rays_reports_are_pinned(capsys, argv):
    code, out = run(capsys, "compare-rays", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMPARE_RAYS_DIGESTS[argv]


def test_compare_rays_refuses_more_ray_elements_than_the_state_cap(capsys):
    # --m-max 100000 would build 200,002 ray elements and make 100,000 length queries
    start = time.perf_counter()
    assert main(["compare-rays", "--group", "z2", "--ray1", '{"periodic":{"block":"x"}}',
                 "--ray2", '{"periodic":{"block":"y"}}', "--n-max", "1", "--m-max", "100000",
                 "--state-cap", "10"]) == 3
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("horocalc: budget exceeded: m_max 100000 needs 2(m_max + 1) = 200002 ray "
                   "elements, more than the state cap of 10\n")


@pytest.mark.parametrize("argv, err", [
    (("ray", "--group", "h1", "--ray", '{"periodic":{"block":"x"}}',
      "--length", "1000000000000", "--state-cap", "10"),
     "a ray prefix of 1000000000000 letters needs 1000000000001 ray elements, "
     "more than the state cap of 10"),
    (("busemann", "--group", "z2", "--ray", '{"periodic":{"block":"x"}}', "--element", "y",
      "--horizon", "1000000000000"),
     "a ray prefix of 1000000000000 letters needs 1000000000001 ray elements, "
     "more than the state cap of 2000000"),
], ids=["ray", "busemann"])
def test_ray_prefixes_over_the_state_cap_are_refused(capsys, argv, err):
    # the prefix's horizon + 1 ray elements are charged before any letter is spelled
    start = time.perf_counter()
    assert main(list(argv)) == 3
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr() == ("", f"horocalc: budget exceeded: {err}\n")


def test_distinctness_cli(capsys):
    doc = run_json(capsys, "distinctness", "--u=-1,-1", "--v=1,1",
                   "--horizon", "6")
    rep = doc["result"]["distinctness"]
    assert rep["witness_b"] == [-1, 0]
    assert rep["u_min_value"] >= 1


def test_stabilizer_cli_reports_the_escape_scan(capsys):
    doc = run_json(capsys, "stabilizer", "--u", "1,1", "--element", "x", "--powers", "0,1",
                   "--horizon", "6")
    rep = stabilizer_escape((1, 1), ("x",), powers=[0, 1], horizon=6)
    assert doc["result"]["stabilizer_escape"] == json.loads(json.dumps(_jsonable(rep)))
    assert doc["budgets"] == {"complete": True, "horizon": 6, "state_cap": DEFAULT_STATE_CAP}
    assert rep.gaps == {0: 0, 1: 2}


def test_subfinsler_cli(capsys):
    doc = run_json(capsys, "subfinsler", "--group", "h1", "--class", "vertical",
                   "--compare", "central", "--window", "4")
    comp = doc["result"]["comparison"]
    assert comp["max_abs_diff_by_radius"][0] == 0


@pytest.mark.parametrize("polygon", [
    "[[2,0],[-1,1],[0,-2],[1,1],[-2,0],[1,-1],[0,2],[-1,-1]]",
    '[[1,0],["1/4","1/4"],[0,1],[-1,0],["-1/4","-1/4"],[0,-1]]',
], ids=["octagram", "reflex"])
def test_a_polygon_not_convex_or_not_traversed_once_exits_2(capsys, polygon):
    assert main(["subfinsler", "--polygon", polygon, "--class", "vertical",
                 "--fingerprint", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "horocalc: vertices are not a convex polygon traversed once counterclockwise\n"


HEXAGON = '[[1,0],["2/3",1],["-1/2","3/4"],[-1,0],["-2/3",-1],["1/2","-3/4"]]'

# sha256 of stdout, taken before the classes were evaluated in integers
SUBFINSLER_DIGESTS = {
    ("auto", "vertical"): "33722844b728584ceee61c56382a463bc561c3907902f4c16250edb2dfad516f",
    ("auto", "nonvertical:1,1/2"):
        "883a494c9afd52312263609c9842bebc5e1cca67cd1204171f3f31847d1bf01b",
    ("auto", "mixed:2,1/2,ge"): "6a697e2a2c9764891776a5f6c5741b4150ca8edc39116fdcebcdffcef4d6c0d8",
    (HEXAGON, "vertical"): "5a7e26a01a624d6d4ac64d6103f36b84257098d8bde09daf11486a00befbbe85",
    (HEXAGON, "nonvertical:1,1/2"):
        "2b85ec31a9fbaddd26824cdb70438cc366135fbe981d3aafac50f8478e2341d4",
    (HEXAGON, "mixed:2,1/2,ge"): "d83af945a966d4082fbc479931afc1310047dfc8b02edb7488b44c53dc755059",
}


@pytest.mark.parametrize("polygon, cls", SUBFINSLER_DIGESTS,
                         ids=lambda value: "hexagon" if value == HEXAGON else value)
def test_subfinsler_fingerprint_reports_are_pinned(capsys, polygon, cls):
    code, out = run(capsys, "subfinsler", "--polygon", polygon, "--class", cls,
                    "--fingerprint", "8")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SUBFINSLER_DIGESTS[polygon, cls]


def test_subfinsler_comparison_report_is_pinned(capsys):
    code, out = run(capsys, "subfinsler", "--compare", "central", "--window", "6")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3c3623c2b99ad6368b74bd0de9a791c97f85cf4b4d842cc96a9a1a47a87516ff")


def test_ball_state_cap(capsys):
    code, _ = run(capsys, "ball", "--group", "cartan", "--radius", "17", "--state-cap", "1000")
    assert code == 3
    # the old per-kind radius budget refused this 123-element ball
    doc = run_json(capsys, "ball", "--group", "z1", "--radius", "61")
    assert doc["result"]["size"] == 123
    assert doc["budgets"] == {"radius": 61, "state_cap": 2_000_000}


def test_ball_cache_hit_obeys_the_state_cap(tmp_path, capsys):
    def argv(cache, *cap):
        return ["ball", "--group", "h1", "--radius", "5", "--cache", str(tmp_path / cache), *cap]

    size = run_json(capsys, *argv("written"))["result"]["size"]
    # over the cap, a hit fails exactly as a miss does, and the miss writes nothing
    outcomes = [(main(argv(cache, "--state-cap", str(size - 1))), capsys.readouterr())
                for cache in ("written", "empty")]
    assert outcomes[0] == outcomes[1] and outcomes[0][0] == 3
    assert list((tmp_path / "empty").iterdir()) == []
    doc = run_json(capsys, *argv("written", "--state-cap", str(size)))
    assert (doc["result"]["cache"], doc["result"]["size"]) == ("hit", size)
    # a negative radius is a domain error, not an empty hit
    assert main(argv("written", "--radius=-1")) == 2


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HOROCALC_CACHE", str(tmp_path))
    doc = run_json(capsys, "ball", "--group", "z2", "--radius", "3")
    assert doc["result"]["cache"] == "miss"
    doc = run_json(capsys, "ball", "--group", "z2", "--radius", "3")
    assert doc["result"]["cache"] == "hit"


def test_exit_codes(capsys, tmp_path):
    code, _ = run(capsys, "dist", "--group", "h1", "--word", "x q")
    assert code == 2
    code, _ = run(capsys, "census", "--group", str(tmp_path / "missing.json"))
    assert code == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "census", "--group", str(bad))
    assert code == 4
    code, _ = run(capsys, "ball", "--group", "h1", "--radius", "6", "--state-cap", "10")
    assert code == 3
    code, _ = run(capsys, "compare-rays", "--group", "z2",
                  "--ray1", "nonsense", "--ray2", "{}")
    assert code == 4
    code, out = run(capsys, "cartan-audit", "--direction", "1,1", "--n", "4", "--delta", "-2")
    assert (code, out) == (2, "")
    code, _ = run(capsys, "cartan-audit", "--direction", "1,1", "--n", "50", "--delta", "51")
    assert code == 3
    for argv in (("distinctness", "--u=-1,-1", "--v=1,1", "--powers=-1", "--horizon", "4"),
                 ("distinctness", "--u=-1,-1", "--v=1,1", "--powers=1..0", "--horizon", "4"),
                 ("stabilizer", "--u", "1,1", "--element", "x", "--powers=-2", "--horizon", "4")):
        assert run(capsys, *argv) == (2, "")
    code, _ = run(capsys, "compare-rays", "--group", "z2",
                  "--ray1", '{"periodic":{"block":"x"}}', "--ray2", '{"periodic":{"block":"y"}}',
                  "--criterion", "switch1b", "--slack", "1")
    assert code == 4
    for argv in (("subfinsler", "--class", "mixed:99,1/2"),
                 ("subfinsler", "--class", "mixed:99,1/2", "--fingerprint", "1")):
        assert run(capsys, *argv) == (2, "")


def test_upper_audit_refuses_long_rays_before_any_work(capsys):
    start = time.perf_counter()
    code = main(["cartan-audit", "--audit", "upper", "--direction", "1,1",
                 "--n-range=3313302,", "--state-cap", "2000"])
    assert code == 3 and time.perf_counter() - start < 0.5
    assert "n + |h| <= 100" in capsys.readouterr().err


def test_power_scans_refuse_long_words_before_any_search(capsys):
    # the largest power times |h| = 10 is 160, over the cap of 100
    start = time.perf_counter()
    code = main(["distinctness", "--u=-1,-1", "--v=1,1", "--powers", "13..16", "--horizon", "8"])
    assert code == 3 and time.perf_counter() - start < 0.5
    assert "power * |h| <= 100, got 160" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (("cartan-audit", "--audit", "upper", "--direction", "1,1", "--n-range", "0..5000000"), 3),
    (("cartan-audit", "--audit", "upper", "--direction", "1,1", "--n-range=-1..5000000"), 2),
    (("distinctness", "--u=-1,-1", "--v=1,1", "--powers=-1..5000000"), 2),
    (("stabilizer", "--u=1,1", "--element=x", "--powers=-1..5000000"), 2),
])
def test_long_ranges_are_refused_without_being_built(capsys, argv, code):
    # a lo..hi range is held by its bounds: five million numbers would take 200 MB
    assert _parse_range("0..5000000") == range(5_000_001)
    tracemalloc.start()
    try:
        assert main(list(argv)) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert "Traceback" not in capsys.readouterr().err


def test_ray_validates_the_whole_requested_prefix(capsys):
    # (21 x then z) three times: the 66 letters hold z x^21 z, which x^21 z z shortens to 65;
    # the recurring x lies on a face, so only the prefix check can refuse the ray
    prefix = " ".join((["x"] * 21 + ["z"]) * 3)
    argv = ("ray", "--group", "h1z",
            "--ray", json.dumps({"periodic": {"prefix": prefix, "block": "x"}}))
    assert run_json(capsys, *argv, "--length", "64")["result"]["geodesic_validation"] == "checked"
    assert run(capsys, *argv, "--length", "66") == (2, "")
    assert run(capsys, *argv, "--length", "66", "--state-cap", "10") == (3, "")


@pytest.mark.parametrize("argv", [
    ("compare-rays", "--group", "h1", "--ray1", '{"digitized":[1,2]}',
     "--ray2", '{"digitized":[2,1]}', "--n-max", n_max, "--m-max", "3")
    for n_max in ("-1", "0", "4")
], ids=lambda argv: "n-max " + argv[-3])
def test_a_comparison_with_nothing_to_check_is_a_domain_error(capsys, argv):
    assert run(capsys, *argv) == (2, "")


@pytest.mark.parametrize("argv, code", [
    (("--compare", "edge:x,y,a,b"), 4),
    (("--compare", "edge:x,y"), 4),
    (("--compare", "foo"), 4),
    (("--compare", "edge:x,y,-1,2"), 2),
    (("--compare", "central", "--window", "-1"), 2),
    (("--compare", "central", "--n", "-3"), 2),
    (("--class", "mixed:1,1/2,xx"), 2),
    (("--class", "mixed:1,1/2,xx", "--fingerprint", "1"), 2),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else f"exit {value}")
def test_subfinsler_inputs_are_typed_errors(capsys, argv, code):
    assert main(["subfinsler", "--group", "h1", "--window", "2", *argv]) == code
    assert "Traceback" not in capsys.readouterr().err


# 13 generators and their inverses: 26 distinct projections, over the hull's limit of 24
H1_13 = {"kind": "heisenberg", "k": 1, "generators": [
    {"label": label, "coords": [a, b, 0]} for label, (a, b) in zip(
        ["x", "y", *(f"g{i}" for i in range(11))],
        [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2), (3, 1), (1, 3),
         (3, -1), (1, -3), (3, 2)])]}


@pytest.mark.parametrize("argv", [
    ("subfinsler", "--fingerprint", "1"),
    ("subfinsler", "--compare", "central", "--window", "1"),
    ("dist", "--word", "x"),
    ("busemann", "--ray", '{"periodic":{"block":"x"}}', "--element", "y", "--horizon", "2"),
], ids=" ".join)
def test_a_marking_past_the_hull_point_limit_is_refused_alike(tmp_path, capsys, argv):
    path = tmp_path / "h1_13.json"
    path.write_text(json.dumps(H1_13))
    assert main([*argv, "--group", str(path)]) == 2
    assert capsys.readouterr().err == "horocalc: too many points (max 24)\n"


@pytest.mark.parametrize("argv", [
    ("--audit", "upper", "--n", "50", "--delta", "70"),
    ("--audit", "upper", "--delta", "2"),
    ("--audit", "lower", "--n", "2", "--delta", "2", "--element", "x",
     "--n-range", "1..3", "--state-cap", "5"),
    ("--audit", "lower", "--state-cap", "5"),
    ("--n-range", "1..3"),
], ids=" ".join)
def test_cartan_audit_rejects_the_other_audits_options(capsys, argv):
    assert main(["cartan-audit", "--direction", "1,1", *argv]) == 4
    assert "applies to --audit" in capsys.readouterr().err


def test_cartan_audit_budgets_show_the_defaults(capsys):
    lower = run_json(capsys, "cartan-audit", "--direction", "1,1")
    assert lower["budgets"] == {"n": 6, "delta": 2}
    upper = run_json(capsys, "cartan-audit", "--audit", "upper", "--direction", "1,1")
    assert upper["budgets"] == {"n_range": "2..8", "state_cap": 2_000_000, "complete": True}
    assert upper["result"]["upper"]["h_word"] == ["x", "y", "x~", "y~"]


UNREAD_OPTIONS = [
    ("dist", "--group", "h1", "--word", "x", "--format", "csv"),
    ("ball", "--group", "z2", "--radius", "1", "--format", "csv"),
    ("cartan-audit", "--direction", "1,1", "--format", "jsonl"),
    ("cartan-audit", "--group", "h1", "--direction", "1,1"),
    ("census", "--group", "h1", "--cache", "."),
    ("census", "--group", "h1", "--state-cap", "10"),
    ("selftest", "--group", "h1"),
]


@pytest.mark.parametrize("argv", UNREAD_OPTIONS, ids=" ".join)
def test_options_a_command_does_not_read_are_rejected(capsys, argv):
    assert main(list(argv)) == 4
    err = capsys.readouterr().err
    assert err.startswith("horocalc: parse error:")
    assert "unrecognized arguments" in err or "invalid choice" in err


def test_usage_errors_are_parse_errors_and_help_exits_0(capsys):
    for argv in ((), ("bogus",), ("dist", "--group", "h1"), ("ball", "--group", "h1", "--radius", "x")):
        assert main(list(argv)) == 4
        assert capsys.readouterr().err.startswith("horocalc: parse error:")
    for argv in (("--help",), ("--version",), ("dist", "--help")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0


# Commands that share option names and set them to other values or leave them at their
# defaults, so that a value leaking from one call into the next would change a report;
# and Cartan balls below, at and over a cap after one that grows the group's ball store.
SEQUENCE_ARGV = [
    ("cartan-audit", "--audit", "upper", "--direction", "1,1", "--n-range", "2..3",
     "--state-cap", "5000", "--seed", "7"),
    ("cartan-audit", "--direction", "1,2", "--n", "3", "--delta", "2"),
    ("cartan-audit", "--direction", "1,1", "--n", "2"),
    ("dist", "--group", "h2", "--word", "x1 y1", "--budget", "5", "--state-cap", "10"),
    ("dist", "--group", "h1", "--word", "x y x~ y~"),
    ("ball", "--group", "h1", "--radius", "3", "--state-cap", "10"),
    ("ball", "--group", "h1", "--radius", "2"),
    ("ball", "--group", "cartan", "--radius", "9"),
    ("ball", "--group", "cartan", "--radius", "6"),
    ("ball", "--group", "cartan", "--radius", "8", "--state-cap", "5000"),
    ("subfinsler", "--fingerprint", "1", "--class", "mixed:2,1/2,ge", "--n", "2"),
    ("subfinsler", "--fingerprint", "1"),
    ("dist", "--group", "h1", "--word", "x", "--budget=--"),
    ("--version",),
]


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_calls_in_one_process_report_as_fresh_processes_do():
    env = dict(os.environ, PYTHONPATH=str(Path(horocalc.__file__).parents[1]))
    fresh = {}
    for argv in SEQUENCE_ARGV:
        proc = subprocess.run([sys.executable, "-m", "horocalc.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        fresh[argv] = (proc.returncode, proc.stdout, proc.stderr)
    assert {code for code, _, _ in fresh.values()} == {0, 3, 4}
    for argv in SEQUENCE_ARGV + SEQUENCE_ARGV[::-1]:
        assert _main_output(argv) == fresh[argv], argv


DEEP = "[" * 50_000 + "]" * 50_000  # JSON nested past the decoder's recursion limit

BAD_INPUTS = [
    ("ray", "--group", "h1", "--ray", DEEP),
    ("ray", "--group", "h1", "--ray", '{"digitized": %s}' % DEEP),
    ("subfinsler", "--polygon", DEEP),
    ("ray", "--group", "h1", "--ray", '{"digitized":[1]}'),
    ("ray", "--group", "h1", "--ray", '{"digitized":["a",1]}'),
    ("ray", "--group", "z2", "--ray", '{"periodic":"x"}'),
    ("subfinsler", "--polygon", "[[1,0"),
    ("subfinsler", "--class", "nonvertical:1"),
    ("subfinsler", "--class", "mixed:1"),
    ("cartan-audit", "--audit", "upper", "--direction", "1,1", "--n-range", "5.."),
    ("dist", "--group", "h1", "--word", "x", "--budget=--"),
    ("subfinsler", "--class=--"),
]


@pytest.mark.parametrize("argv", BAD_INPUTS,
                         ids=lambda argv: " ".join(argv[:1] + argv[-1:])[:32])
def test_malformed_arguments_are_parse_errors(capsys, argv):
    assert main(list(argv)) == 4
    err = capsys.readouterr().err
    assert err.startswith("horocalc: parse error:") and "Traceback" not in err
    assert err.count("\n") == 1


UNWRITABLE = {  # argv for a scratch directory holding one file, "f"
    "report": lambda d: ("dist", "--group", "h1", "--word", "x y", "--out", f"{d}/no/r.json"),
    "export": lambda d: ("ball", "--group", "h1", "--radius", "2", "--format", "jsonl",
                         "--out", f"{d}/no/b.jsonl"),
    "export under a file": lambda d: ("ball", "--group", "cartan", "--radius", "2",
                                      "--format", "jsonl", "--out", f"{d}/f/b.jsonl"),
    "cache": lambda d: ("ball", "--group", "h1", "--radius", "2", "--cache", f"{d}/f"),
}


@pytest.mark.parametrize("name", sorted(UNWRITABLE))
def test_unwritable_paths_are_parse_errors(tmp_path, capsys, name):
    (tmp_path / "f").write_text("kept")
    assert main(list(UNWRITABLE[name](tmp_path))) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("horocalc: parse error: cannot ")
    assert err.count("\n") == 1 and "Traceback" not in err
    # nothing written, no temp file left behind
    assert [p.name for p in tmp_path.iterdir()] == ["f"]
    assert (tmp_path / "f").read_text() == "kept"


def _fuzz_text(*near):
    """Arbitrary text, or text built from the given fragments."""
    pieces = st.sampled_from(near + (",", ":", "..", "-", "/", "[", "]", "{", "}", '"'))
    built = st.lists(st.one_of(pieces, st.integers(-3, 3).map(str)), max_size=8).map("".join)
    return st.one_of(st.text(max_size=12), built)


_json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=2),
    max_leaves=6,
)
_ray_doc = st.one_of(
    st.fixed_dictionaries({"digitized": _json_value}),
    st.fixed_dictionaries({"periodic": _json_value}),
    st.fixed_dictionaries({"periodic": st.fixed_dictionaries(
        {"block": _fuzz_text("x", "y", "x~", " ")},
        optional={"prefix": _json_value})}),
    _json_value,
).map(json.dumps)

_VALID_RAYS = st.sampled_from(['{"digitized":[1,2]}', '{"digitized":[-3,1]}',
                               '{"periodic":{"block":"x y"}}',
                               '{"periodic":{"prefix":"y~","block":"x"}}'])
_ray_or_valid = st.one_of(_VALID_RAYS, _ray_doc)

LENGTH_GROUPS = {name: standard_group(name) for name in ("h1", "h1z", "h2")}


def _option(name, numbers):
    """An option that is missing, a number in range or arbitrary text."""
    return st.one_of(st.just(""), numbers.map(str), _fuzz_text()).map(
        lambda text: text and f"--{name}={text}")


def _length_argv(command, *options):
    """A word over a group's letters and stray tokens, with fuzzed --state-cap and options."""
    return st.sampled_from(sorted(LENGTH_GROUPS)).flatmap(lambda name: st.tuples(
        st.just(command), st.just("--group=" + name),
        st.lists(st.sampled_from(LENGTH_GROUPS[name].labels + ("q", "x~~")), max_size=8)
        .map(lambda word: "--word=" + " ".join(word)),
        _option("state-cap", st.integers(-1, 300)),
        *(_option(option, st.integers(-2, 12)) for option in options),
    ).map(lambda argv: tuple(arg for arg in argv if arg)))


def _not_above(bound):
    """True for text that int() rejects or reads as at most bound."""
    def check(text):
        try:
            return int(text) <= bound
        except ValueError:
            return True
    return check


def _ball_argv(radius, state_cap):
    return st.tuples(st.just("ball"), st.sampled_from(["z1", "z2", "h1", "h2", "cartan"]).map(
        lambda name: "--group=" + name), radius.map(lambda r: f"--radius={r}"),
        state_cap.map(lambda cap: f"--state-cap={cap}"))


def _fields_not_above(bound):
    """True for text whose ','- or '..'-separated fields int() rejects or reads as <= bound."""
    check = _not_above(bound)
    return lambda text: all(check(field) for field in re.split(r",|\.\.", text))


def _scan_argv(command, *options):
    """``command`` with options (name, (in_range, keep), near): either every value is drawn
    from in_range, or each is drawn from in_range or from text fuzzed near the fragments
    ``near`` that ``keep`` accepts."""
    def value(values, near, fuzzed):
        in_range, keep = values
        return st.one_of(in_range, _fuzz_text(*near).filter(keep)) if fuzzed else in_range

    def argv(fuzzed):
        return st.tuples(st.just(command), *(value(values, near, fuzzed).map(
            lambda text, name=name: f"--{name}={text}") for name, values, near in options))

    return st.one_of(argv(False), argv(True))


# directions, powers, horizons and the state cap stay small, so every scan is short
_PAIR = (st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda p: f"{p[0]},{p[1]}"),
         _fields_not_above(3))
_POWERS = (st.one_of(st.lists(st.integers(-2, 3).map(str), max_size=3).map(",".join),
                     st.tuples(st.integers(-2, 3), st.integers(-2, 3)).map(
                         lambda r: f"{r[0]}..{r[1]}")),
           _fields_not_above(3))
_SCAN_OPTIONS = (
    ("powers", _POWERS, (",", "..")),
    ("horizon", (st.integers(-2, 6).map(str), _not_above(6)), ()),
    ("state-cap", (st.integers(-1, 5000).map(str), _not_above(5000)), ()),
)


@lru_cache(maxsize=None)
def _naive_lengths(name):
    return naive_ball(LENGTH_GROUPS[name], 6)


# Radii up to which a fuzzed ball report is checked against the naive ball.
NAIVE_BALL_RADII = {"z1": 30, "z2": 12, "h1": 7, "h2": 3, "cartan": 6}


@lru_cache(maxsize=None)
def _naive_spheres(name):
    radius = NAIVE_BALL_RADII[name]
    naive = naive_ball(standard_group(name), radius)
    return [sum(1 for d in naive.values() if d == r) for r in range(radius + 1)]


_RAY_ARGV = st.tuples(
    st.just("ray"), st.sampled_from(["--group=h1", "--group=z2", "--group=cartan"]),
    st.one_of(_ray_doc, _fuzz_text('{"digitized":', '{"periodic":')).map(
        lambda text: "--ray=" + text),
    st.just("--length=3"))
# horizons of at most 6 keep every scan short
_BUSEMANN_ARGV = st.tuples(
    st.sampled_from(["--group=z2", "--group=h1", "--group=cartan"]),
    _scan_argv("busemann",
               ("ray", (_VALID_RAYS, lambda text: True), ('{"digitized":', '{"periodic":')),
               ("element", (st.lists(st.sampled_from(["x", "y", "x~", "y~"]), max_size=4)
                            .map(" ".join), lambda text: True), ("x", "y~", " ")),
               ("horizon", (st.integers(-2, 6).map(str), _not_above(6)), ())),
).map(lambda argv: argv[1][:1] + argv[:1] + argv[1][1:])

# The kind of argv is drawn first, uniformly from this list, so ray and busemann
# (listed twice) are not left to the few examples a plain one_of gives them.
FUZZED_ARGV = st.sampled_from([
    *(_RAY_ARGV, _BUSEMANN_ARGV) * 2,
    st.tuples(st.just("subfinsler"), st.just("--group=h1"),
              st.one_of(st.just("auto"), _json_value.map(json.dumps), _fuzz_text("1/2", "0.5"))
              .map(lambda text: "--polygon=" + text),
              _fuzz_text("vertical", "nonvertical", "mixed", "le", "ge").map(
                  lambda text: "--class=" + text)),
    st.tuples(st.just("cartan-audit"), st.just("--audit=upper"), st.just("--direction=1,1"),
              _fuzz_text().map(lambda text: "--n-range=" + text), st.just("--state-cap=2000")),
    # small windows, n and edge powers keep every ball small
    st.tuples(st.just("subfinsler"), st.just("--group=h1"),
              st.one_of(st.sampled_from(["central", "vertex:x", "vertex:q"]), _fuzz_text(),
                        st.lists(st.one_of(st.sampled_from(["x", "y~", "", "a", "1/2"]),
                                           st.integers(-2, 3).map(str)), max_size=5)
                        .map(lambda parts: "edge:" + ",".join(parts)))
              .map(lambda text: "--compare=" + text),
              st.integers(-2, 3).map(lambda w: f"--window={w}"),
              st.integers(-3, 3).map(lambda n: f"--n={n}")),
    st.tuples(st.just("compare-rays"), st.sampled_from(["--group=z2", "--group=h1"]),
              st.just('--ray1={"digitized":[1,2]}'), st.just('--ray2={"periodic":{"block":"x y"}}'),
              st.integers(-3, 4).map(lambda n: f"--n-max={n}"),
              st.integers(-3, 8).map(lambda m: f"--m-max={m}")),
    st.tuples(st.just("compare-rays"), st.sampled_from(["--group=z2", "--group=h1"]),
              _ray_or_valid.map(lambda text: "--ray1=" + text),
              _ray_or_valid.map(lambda text: "--ray2=" + text),
              st.sampled_from(["--criterion=switch1b", "--criterion=switch2b"]),
              st.just("--n-max=2"), st.just("--m-max=5")),
    # n + delta <= 10 keeps every lower audit short
    _scan_argv("cartan-audit", ("direction", _PAIR, (",",)),
               ("n", (st.integers(-2, 6).map(str), _not_above(6)), ()),
               ("delta", (st.integers(-2, 4).map(str), _not_above(4)), ()))
    .map(lambda argv: argv[:1] + ("--audit=lower",) + argv[1:]),
    _length_argv("dist", "budget"),
    _length_argv("geodesic-check"),
    # the state cap, never above 5000, bounds every ball whatever the radius
    _ball_argv(st.integers(-2, 60), st.integers(-1, 5000)),
    _ball_argv(st.one_of(st.integers(-2, 60).map(str), _fuzz_text()),
               st.one_of(st.integers(-1, 5000).map(str), _fuzz_text().filter(_not_above(5000)))),
    st.tuples(st.just("subfinsler"), st.just("--group=h1"),
              st.integers(-2, 4).map(lambda r: f"--fingerprint={r}")),
    _scan_argv("distinctness", ("u", _PAIR, (",",)), ("v", _PAIR, (",",)), *_SCAN_OPTIONS),
    st.sampled_from(sorted(LENGTH_GROUPS)).flatmap(lambda name: st.tuples(
        st.just("anagram"), st.just("--group=" + name),
        st.lists(st.sampled_from(LENGTH_GROUPS[name].labels + ("q",)), max_size=10)
        .map(lambda word: "--word=" + " ".join(word)),
        _option("max-states", st.integers(-1, 300)),
    ).map(lambda argv: tuple(arg for arg in argv if arg))),
    _scan_argv("stabilizer", ("u", _PAIR, (",",)),
               ("element", (st.lists(st.sampled_from(["x", "y", "x~", "y~", "q"]), max_size=4)
                            .map(" ".join), lambda text: True), ("x", "y~", " ")),
               *_SCAN_OPTIONS),
]).flatmap(lambda strategy: strategy)


@settings(max_examples=150, deadline=None)
@given(argv=FUZZED_ARGV)
def test_fuzzed_arguments_never_end_in_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if argv[0] == "dist" and code == 0:
        doc = json.loads(out.getvalue())
        res, budget = doc["result"], doc["budgets"]["budget"]
        if len(res["word"]) <= 6 and res["status"] != "inconclusive":
            name = argv[1].removeprefix("--group=")
            d = _naive_lengths(name)[LENGTH_GROUPS[name].evaluate(res["word"]).key()]
            expected = ("exact", d) if d <= budget else ("exceeds_budget", None)
            assert (res["status"], res["length"]) == expected, argv
    if argv[0] == "anagram" and code == 0:
        res = json.loads(out.getvalue())["result"]
        if len(res["word"]) <= 6:
            group = LENGTH_GROUPS[argv[1].removeprefix("--group=")]
            assert set(res["offsets"]) == brute_force_anagram_offsets(group, res["word"]), argv
    if argv[0] == "ball" and code == 0:
        doc = json.loads(out.getvalue())
        res = doc["result"]
        assert res["size"] <= doc["budgets"]["state_cap"], argv
        name = argv[1].removeprefix("--group=")
        if res["radius"] <= NAIVE_BALL_RADII[name]:
            spheres = _naive_spheres(name)[: res["radius"] + 1]
            assert (res["size"], res["sphere_sizes"]) == (sum(spheres), spheres), argv


_FAR = st.integers(-200, 200)
# half the pairs are one small step apart: nearly parallel directions separate only at a
# far barycenter, whose central word may pass the 100-letter cap
_FAR_PAIR = st.tuples(_FAR, _FAR).flatmap(lambda u: st.tuples(st.just(u), st.one_of(
    st.tuples(_FAR, _FAR),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any).map(
        lambda d: (u[0] + d[0], u[1] + d[1])),
)))


@settings(max_examples=60, deadline=None)
@given(pair=_FAR_PAIR, horizon=st.integers(0, 3), state_cap=st.integers(1, 5000))
@example(pair=((100, 99), (99, 98)), horizon=2, state_cap=5000)
def test_distinctness_of_far_directions_ends_in_a_report_or_one_line(pair, horizon, state_cap):
    (u, v) = pair
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["distinctness", f"--u={u[0]},{u[1]}", f"--v={v[0]},{v[1]}",
                     f"--horizon={horizon}", f"--state-cap={state_cap}"])
    assert code in (0, 2, 3), (pair, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["result"]["distinctness"]["powers"] == [1]
    else:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()


@st.composite
def _group_doc(draw):
    """A group description close to a valid one: sizes and coordinate counts
    mostly agree, while labels, numbers and words are sometimes of the wrong type."""
    kind = draw(st.sampled_from(["abelian", "heisenberg", "cartan"]))
    size = draw(st.integers(0, 2))
    width = size if kind == "abelian" else 2 * size + 1
    label = st.one_of(st.sampled_from(["x", "y", "z", "x~"]),
                      st.sampled_from([5, None, "", "~", "x y"]))
    coord = st.one_of(st.integers(-2, 2), st.sampled_from([1.0, 1.5, True, "1", None]))
    entry = st.fixed_dictionaries({"label": label}, optional={
        "coords": st.one_of(st.lists(coord, min_size=width, max_size=width), _json_value),
        "word": st.one_of(_fuzz_text("x", "y", "x~", " "), st.lists(label, max_size=3),
                          _json_value)})
    doc = {"kind": kind, "generators": draw(st.lists(entry, min_size=1, max_size=3))}
    if kind != "cartan":
        doc["d" if kind == "abelian" else "k"] = draw(st.one_of(
            st.just(size), st.sampled_from([str(size), float(size), True]), _json_value))
    return doc


GROUP_DOCS = st.one_of(
    _group_doc(),
    st.fixed_dictionaries({"preset": st.one_of(st.sampled_from(["h1", "z2"]), _json_value)}),
    _json_value,
)


@settings(max_examples=150, deadline=None)
@given(doc=GROUP_DOCS)
def test_fuzzed_group_json_is_loaded_exactly_or_rejected(doc):
    try:
        group = group_from_json(doc)
    except ParseError:
        return
    if doc.get("kind") in ("abelian", "heisenberg"):
        labels = [e["label"] for e in doc["generators"]]
        assert len(set(labels)) == len(labels)
        for e in doc["generators"]:
            assert full_coordinates(group.generator(e["label"])) == tuple(e["coords"])
            assert all(type(c) is int for c in e["coords"])


@settings(max_examples=100, deadline=None)
@given(blob=st.one_of(GROUP_DOCS.map(lambda doc: json.dumps(doc).encode()),
                      st.binary(max_size=16)))
@example(blob=b'{"kind": "\xff"}')  # not UTF-8
@example(blob=DEEP.encode())
def test_fuzzed_group_files_never_end_in_a_traceback(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("group") / "g.json"
    path.write_bytes(blob)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["dist", "--group", str(path), "--word", ""])
    assert code in (0, 2, 3, 4), (blob[:80], err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 4:
        assert err.getvalue().count("\n") == 1
