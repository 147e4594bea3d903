"""horocalc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in this process as a closed loop with one client: the
next query starts only when the previous one has returned. The seeded query
list is answered over and over, one pass after another, until ``--seconds``
have gone by; every pass gets a fresh scratch directory under
``.perfbench-work/`` in the checkout, which is removed at the end.

``--trace 0`` reports the end-to-end metrics. On a shared host the
interpreter's speed drifts by 10-20 % between runs, so after every query the
runner also times a fixed reference kernel that does not touch horocalc. The
``*_ref`` metrics are times in units of that kernel's time in the same pass,
which cancels most of the drift. Set-up is measured in fresh interpreter
processes, one after another, each of which also times the kernel; ``setup_s``
is the median ratio of set-up time to kernel time, times ``REF_KERNEL_S``:
the set-up time in seconds on a reference host whose kernel takes exactly
that long. Peak memory is measured in one more fresh process that sets up
and answers the query list once, with no checks, summaries or oracles, so
that only horocalc's memory counts. The times as the user sees them
(``wall_s``, ``query_p50_ms``, ``query_p90_ms``, ``setup_host_s``) and
``error_rate`` are printed and recorded beside them.

``--trace 1`` spends the first half of the time untraced and the second half
with spans and counters installed around each module's public functions
(see ``tracing.py``), and reports the per-module metrics; ``trace.overhead_s``
is the difference of the two halves' median pass times.

Answers are checked outside the timed region: the first pass against
oracles and proved invariants, later passes against the first. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment, the
answer digest and the failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_PROBES = 21
# The reference host's kernel time, which defines the scale of ``setup_s``. A
# round number by convention; on a 2-core Intel Xeon VM with Python 3.11 the
# kernel took 0.8 to 1.2 ms in fresh processes.
REF_KERNEL_S = 1e-3
COVERAGE_MIN = 0.95

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "query_p50_ref": "ref",
    "query_p90_ref": "ref",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
# Recorded with every untraced run but not part of the result's metrics:
# their run-to-run spread is the host's drift.
HOST_TIMES = {"wall_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms", "setup_host_s": "s",
              "error_rate": "ratio"}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for kind in ("abelian", "heisenberg", "cartan"):
        units[f"groups.products.{kind}"] = "count"
        units[f"groups.product_ns.{kind}"] = "ns"
    units["polytope.gauge_evals"] = "count"
    units["metric.word_length.calls"] = "count"
    units["metric.word_length.self_s"] = "s"
    for name in ("expanded", "exact", "exceeds_budget", "inconclusive"):
        units[f"metric.word_length.{name}"] = "count"
    units["metric.word_length.calls_per_query"] = "calls/query"
    units["metric.ball.calls"] = "count"
    units["metric.ball.self_s"] = "s"
    units["metric.ball.entries"] = "count"
    units["metric.ball.redundant_entries"] = "count"
    for fn in ("busemann_eval", "compare", "horofn_window", "validate_ray"):
        units[f"horoboundary.{fn}.calls"] = "count"
        units[f"horoboundary.{fn}.self_s"] = "s"
    for fn in ("lower_audit", "upper_audit", "distinctness", "stabilizer"):
        units[f"cartan.{fn}.self_s"] = "s"
    units["cartan.lower_audit.words"] = "count"
    for fn in ("anagram", "census"):
        units[f"classifier.{fn}.calls"] = "count"
        units[f"classifier.{fn}.self_s"] = "s"
    for fn in ("compare", "fingerprint"):
        units[f"subfinsler.{fn}.self_s"] = "s"
    units["cli.main.self_s"] = "s"
    units["cli.cache.hit"] = "count"
    units["cli.cache.miss"] = "count"
    units["cli.cache.write_s"] = "s"
    units["cli.cache.read_s"] = "s"
    units["cli.cache.bytes_written"] = "B"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = _per_layer_units()


def _import_library():
    if not (SRC / "horocalc" / "__init__.py").is_file():
        sys.exit(f"perfbench: the horocalc sources are missing ({SRC / 'horocalc'})")
    sys.path.insert(0, str(SRC))


# -- environment ------------------------------------------------------------


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "horocalc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# -- reference kernel -------------------------------------------------------


@dataclass(frozen=True)
class _Triple:
    a: int
    b: int
    c: int

    def __mul__(self, other):
        return _Triple(self.a + other.a, self.b + other.b, self.c + other.c + self.a * other.b)


_KERNEL_GENS = (_Triple(1, 0, 0), _Triple(0, 1, 0), _Triple(-1, 0, 0), _Triple(0, -1, 0))


def reference_kernel() -> int:
    """About a millisecond of the interpreter work horocalc's searches do
    (frozen-dataclass products, tuple keys, dict probes), without horocalc."""
    seen = {(0, 0, 0): 0}
    frontier = [_Triple(0, 0, 0)]
    for r in range(1, 6):
        nxt = []
        for g in frontier:
            for s in _KERNEL_GENS:
                h = g * s
                k = (h.a, h.b, h.c)
                if k not in seen:
                    seen[k] = r
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def _kernel_times(n: int) -> list[float]:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference_kernel()
        out.append(time.perf_counter() - t0)
    return out


# -- set-up -----------------------------------------------------------------


def setup_probe(workload: str) -> tuple[float, float]:
    """Import horocalc, build the groups and fill the gauge caches.

    Returns the seconds taken and the median time of the reference kernel
    run just before and just after in the same process.
    """
    kernel = _kernel_times(10)
    t0 = time.perf_counter()
    _import_library()
    import workloads

    workloads.setup(workload)
    setup = time.perf_counter() - t0
    return setup, statistics.median(kernel + _kernel_times(10))


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(set-up, kernel) times of fresh interpreter processes, run one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                              "--workload", workload], capture_output=True, text=True,
                             timeout=120, check=True)
        setup, kernel = out.stdout.split()[-2:]
        samples.append((float(setup), float(kernel)))
    return samples


def rss_probe(workload: str, seed: int, small: bool, probe_dir: Path) -> float:
    """Peak resident memory (MB) of this process after setting up and answering
    the query list once; answers are dropped as soon as they return."""
    _import_library()
    import workloads

    queries = workloads.build(workload, workloads.setup(workload), seed, small)
    probe_dir.mkdir(parents=True)
    try:
        for q in queries:
            if q.prepare is not None:
                q.prepare(probe_dir)
            try:
                q.run(probe_dir)
            except Exception:  # counted by the measured passes, not here
                pass
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_rss(workload: str, seed: int, small: bool, workdir: Path) -> float:
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--rss-probe",
                          "--workload", workload, "--seed", str(seed),
                          "--probe-dir", str(workdir / "rss-probe"), *(["--small"] * small)],
                         capture_output=True, text=True, timeout=150, check=True)
    return float(out.stdout.split()[-1])


# -- passes -----------------------------------------------------------------


class Runner:
    """Answers the query list one pass at a time and checks every answer."""

    def __init__(self, queries, workdir: Path):
        self.queries = queries
        self.workdir = workdir
        self.reference: list | None = None  # summaries of the first pass
        self.verdicts: list = []  # the first pass's check results
        self.failures: list[dict] = []
        self.attempted = 0
        self.passes = 0

    def run_pass(self, tracer=None) -> dict:
        pass_dir = self.workdir / f"pass-{self.passes}"
        pass_dir.mkdir(parents=True)
        latencies, summaries, verdicts = [], [], []
        kernel = 0.0
        for i, q in enumerate(self.queries):
            if q.prepare is not None:
                q.prepare(pass_dir)
            t0 = time.perf_counter()
            try:
                answer = tracer.query(q.run, pass_dir) if tracer else q.run(pass_dir)
                error = None
            except Exception as exc:  # a raised error is a failed query, not a crash
                answer, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            reference_kernel()
            kernel += time.perf_counter() - t1
            if error is None:
                summary = q.summary(answer)
                if self.reference is None:
                    error = q.check(answer)
                elif summary != self.reference[i]:
                    error = "answer differs from the first pass"
                else:  # the same exact answer earns the same verdict
                    error = self.verdicts[i]
            else:
                summary = None
            del answer
            summaries.append(summary)
            verdicts.append(error)
            if error is not None:
                self.failures.append({"pass": self.passes, "query": i, "kind": q.kind,
                                      "probe": q.probe, "error": error})
        shutil.rmtree(pass_dir)
        if self.reference is None:
            self.reference, self.verdicts = summaries, verdicts
        self.attempted += len(self.queries)
        self.passes += 1
        return {"latencies": latencies, "wall": sum(latencies),
                "ref": kernel / len(self.queries)}

    def digest(self) -> str:
        """sha256 of the first pass's answers, probes left out."""
        import workloads

        answers = [[q.kind, s] for q, s in zip(self.queries, self.reference) if not q.probe]
        return workloads.sha(answers)


def product_ns() -> dict[str, float]:
    """Fixed microbenchmark: nanoseconds per element product, per group kind."""
    from horocalc.groups import standard_group

    reps, n = 5, 20_000
    out = {}
    for kind, name, w1, w2 in (("abelian", "z2", "x x y~", "y x~ y"),
                               ("heisenberg", "h1", "x x y~ x", "y x~ y y"),
                               ("cartan", "cartan", "x x y~ x", "y x~ y y")):
        g = standard_group(name)
        a, b = g.evaluate(w1.split()), g.evaluate(w2.split())
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(n):
                a * b
            samples.append((time.perf_counter() - t0) / n * 1e9)
        out[kind] = statistics.median(samples)
    return out


def layer_metrics(tracer, queries: int) -> dict[str, float]:
    """Per-module metrics of one traced pass (times unaggregated)."""
    m = {name: 0 for name in PER_LAYER}
    for name, value in tracer.counts.items():
        m[name] = value
    for span, calls in tracer.calls.items():
        m[f"{span}.calls"] = calls
    for span, secs in tracer.self_s.items():
        m[f"{span}.self_s"] = secs
    m["cli.cache.write_s"] = tracer.self_s.get("cli.cache.write", 0.0)
    m["cli.cache.read_s"] = tracer.self_s.get("cli.cache.read", 0.0)
    m["metric.word_length.calls_per_query"] = tracer.calls["metric.word_length"] / queries
    return {k: v for k, v in m.items() if k in PER_LAYER}


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- one run ----------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool,
            workdir: Path) -> tuple[dict, dict]:
    """Run the workload; returns (result line, record line)."""
    import workloads

    setup_samples = [] if trace else measure_setup(workload)
    peak_rss_mb = None if trace else measure_rss(workload, seed, small, workdir)
    groups = workloads.setup(workload)
    queries = workloads.build(workload, groups, seed, small)
    runner = Runner(queries, workdir)
    problems = []

    start = time.perf_counter()
    plain_passes = []
    budget = seconds / 2 if trace else seconds
    while not plain_passes or time.perf_counter() - start < budget:
        plain_passes.append(runner.run_pass())
    plain_wall = statistics.median(p["wall"] for p in plain_passes)

    record = environment(workload, seed)
    if trace:
        from tracing import Tracer

        layers, coverage = [], []
        while not layers or time.perf_counter() - start < seconds:
            tracer = Tracer()
            tracer.install()
            try:
                p = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer, len(queries)))
            coverage.append(tracer.top_s / p["wall"])
            layers[-1]["_wall"] = p["wall"]
        metrics = {}
        for name in PER_LAYER:
            values = [lm[name] for lm in layers]
            if PER_LAYER[name] == "s":
                metrics[name] = statistics.median(values)
            else:
                if len(set(values)) != 1:
                    problems.append(f"{name} differs between traced passes: {values}")
                metrics[name] = values[0]
        for kind, ns in product_ns().items():
            metrics[f"groups.product_ns.{kind}"] = ns
        metrics["trace.overhead_s"] = statistics.median(lm["_wall"] for lm in layers) - plain_wall
        for name in workloads.NONZERO[workload]:
            if not metrics[name]:
                problems.append(f"{name} is 0; a traced binding was missed")
        record["trace_coverage"] = min(coverage)
        if min(coverage) < COVERAGE_MIN:
            problems.append(f"module spans cover only {min(coverage):.3f} of the traced wall time")
        units = PER_LAYER
    else:
        # One sample per query: its median over the passes. Pooling passes
        # instead would move the percentile's rank with the pass count.
        latencies = [statistics.median(ts) for ts in zip(*(p["latencies"] for p in plain_passes))]
        relative = [statistics.median(t / p["ref"] for t, p in zip(ts, plain_passes))
                    for ts in zip(*(p["latencies"] for p in plain_passes))]
        metrics = {
            "setup_s": statistics.median(t / k for t, k in setup_samples) * REF_KERNEL_S,
            "wall_ref": statistics.median(p["wall"] / p["ref"] for p in plain_passes),
            "query_p50_ref": statistics.median(relative),
            "query_p90_ref": _percentile(relative, 90),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": 1 - len(runner.failures) / runner.attempted,
        }
        record["host_times"] = {
            "wall_s": plain_wall,
            "query_p50_ms": statistics.median(latencies) * 1e3,
            "query_p90_ms": _percentile(latencies, 90) * 1e3,
            "setup_host_s": statistics.median(t for t, _ in setup_samples),
            "error_rate": len(runner.failures) / runner.attempted,
        }
        record["setup_samples_s"] = setup_samples
        record["latency_samples"] = len(latencies)
        record["reference_kernel_s"] = [p["ref"] for p in plain_passes]
        units = END_TO_END

    failed = len(runner.failures)
    record.update({
        "passes": runner.passes,
        "queries_per_pass": len(queries),
        "answer_digest": runner.digest(),
        "failures": runner.failures[:20],
        "problems": problems,
    })
    correct = not problems and not any(not f["probe"] for f in runner.failures)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrunk query list, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(*setup_probe(args.workload))
        return 0
    if args.rss_probe:
        print(rss_probe(args.workload, args.seed, args.small, args.probe_dir))
        return 0
    _import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 args.small, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in record.get("host_times", {}).items():
        print(f"{name:40s} {value:.6g} {HOST_TIMES[name]}  (not gated)")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
