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
from horocalc.cli import _parse_range, main
from horocalc.errors import ParseError
from horocalc.groups import full_coordinates, group_from_json, standard_group
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


def test_ball_jsonl_export(tmp_path, capsys):
    out = tmp_path / "ball.jsonl"
    doc = run_json(capsys, "ball", "--group", "z2", "--radius", "2",
                   "--out", str(out), "--format", "jsonl")
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "ball-cache"
    assert len(lines) - 1 == doc["result"]["size"] == 13


def test_deterministic_reports(capsys):
    _, out1 = run(capsys, "census", "--group", "h1", "--seed", "5")
    _, out2 = run(capsys, "census", "--group", "h1", "--seed", "5")
    assert out1 == out2
    _, s1 = run(capsys, "selftest", "--seed", "9")
    _, s2 = run(capsys, "selftest", "--seed", "9")
    assert s1 == s2


def test_selftest_passes(capsys):
    doc = run_json(capsys, "selftest")
    assert doc["result"]["passed"] is True
    assert all(doc["result"]["checks"].values())


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


def test_distinctness_cli(capsys):
    doc = run_json(capsys, "distinctness", "--u=-1,-1", "--v=1,1",
                   "--horizon", "6")
    rep = doc["result"]["distinctness"]
    assert rep["witness_b"] == [-1, 0]
    assert rep["u_min_value"] >= 1


def test_subfinsler_cli(capsys):
    doc = run_json(capsys, "subfinsler", "--group", "h1", "--class", "vertical",
                   "--compare", "central", "--window", "4")
    comp = doc["result"]["comparison"]
    assert comp["max_abs_diff_by_radius"][0] == 0


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
    # 21 x then z: the 66-letter prefix holds z x^21 z, which x^21 z z shortens to 65
    block = " ".join(["x"] * 21 + ["z"])
    argv = ("ray", "--group", "h1z", "--ray", json.dumps({"periodic": {"block": block}}))
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
