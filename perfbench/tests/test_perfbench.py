"""Tests of the benchmark itself.

Each workload runs shrunk, traced, twice with the same seed in fresh
processes; the per-module counts and the answer digests must be identical,
because every answer is exact and every count is deterministic work.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, seed, cwd=ROOT):
    """The BENCHMARK.json command, run from the root of a checkout."""
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1", "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _traced(workload, seed):
    out = _run(workload, seed)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _counts(result):
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] not in ("s", "ns")}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_shrunk_workload_repeats_exactly(workload):
    record1, result1 = _traced(workload, 7)
    record2, result2 = _traced(workload, 7)
    for record, result in ((record1, result1), (record2, result2)):
        assert result["correct"], (record["failures"], record["problems"])
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert record1["answer_digest"] == record2["answer_digest"]
    assert _counts(result1) == _counts(result2)


def test_benchmark_json_matches_the_runner():
    loader = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(loader)
    sys.modules[loader.name] = run  # dataclasses resolve annotations through sys.modules
    loader.loader.exec_module(run)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(SPEC["workloads"][0]["name"], 1, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
