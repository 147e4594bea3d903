"""Per-module spans and counters, installed from outside the library.

``Tracer.install`` replaces every binding of each traced public function, in
every loaded module (``horocalc.horoboundary.word_length`` and
``horocalc.cartan.busemann_eval`` as well as the defining modules' names), with
a wrapper that records a span; ``uninstall`` puts the originals back. Element
products are counted by patching ``__mul__`` on the element classes, and gauge
evaluations by wrapping the callable that ``metric`` gets from
``_gauge_ceil_fn``. Spans nest: a span's self time is its duration minus the
durations of the traced spans inside it.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

from horocalc import cartan, classifier, cli, groups, horoboundary, metric, subfinsler

# (module, function, span name); two functions may share one span name.
SPANS = (
    (metric, "word_length", "metric.word_length"),
    (metric, "ball", "metric.ball"),
    (horoboundary, "busemann_eval", "horoboundary.busemann_eval"),
    (horoboundary, "same_busemann", "horoboundary.compare"),
    (horoboundary, "reduced_equiv", "horoboundary.compare"),
    (horoboundary, "horofn_window", "horoboundary.horofn_window"),
    (horoboundary, "validate_ray", "horoboundary.validate_ray"),
    (cartan, "bound_audit_lower", "cartan.lower_audit"),
    (cartan, "bound_audit_upper", "cartan.upper_audit"),
    (cartan, "distinctness_witness", "cartan.distinctness"),
    (cartan, "stabilizer_escape", "cartan.stabilizer"),
    (classifier, "anagram_set", "classifier.anagram"),
    (classifier, "orbit_census", "classifier.census"),
    (subfinsler, "discrete_vs_continuous", "subfinsler.compare"),
    (subfinsler, "class_fingerprint", "subfinsler.fingerprint"),
    (cli, "main", "cli.main"),
    (cli, "read_ball_jsonl", "cli.cache.read"),
    (cli, "write_ball_jsonl", "cli.cache.write"),
)

ELEMENT_CLASSES = (
    (groups.AbelianElement, "abelian"),
    (groups.HeisenbergElement, "heisenberg"),
    (groups.CartanElement, "cartan"),
)


class Tracer:
    """Spans and counters of one traced pass.

    The benchmark opens one query span per top-level query with ``query``;
    the module spans inside it are recorded by the installed wrappers.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.top_s = 0.0  # time in module spans opened directly by a query
        self._stack: list[list[float]] = []
        self._balls: dict[str, int] = {}  # group hash -> largest radius built in this query
        self._undo: list[tuple] = []
        self._gauge_wrappers: dict = {}

    # -- spans ------------------------------------------------------------

    def query(self, fn, *args):
        """Run one top-level query inside its own span."""
        self._stack.append([0.0])
        self._balls = {}
        try:
            return fn(*args)
        finally:
            self._stack.pop()

    def _span(self, fn, name):
        stack, calls, self_s, post = self._stack, self.calls, self.self_s, self._post.get(name)

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                    if len(stack) == 1:
                        self.top_s += dt
            if post is not None:
                post(self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters attached to span results -------------------------------

    def _after_word_length(self, res, args):
        self.counts["metric.word_length.expanded"] += res.expanded
        self.counts["metric.word_length." + res.status] += 1

    def _after_ball(self, table, args):
        self.counts["metric.ball.entries"] += len(table)
        key = args[0].group_hash
        if self._balls.get(key, -1) >= table.radius:
            self.counts["metric.ball.redundant_entries"] += len(table)
        self._balls[key] = max(self._balls.get(key, -1), table.radius)

    def _after_lower_audit(self, rep, args):
        self.counts["cartan.lower_audit.words"] += sum(r["words"] for r in rep.per_delta)

    def _after_cache_write(self, _, args):
        self.counts["cli.cache.bytes_written"] += os.path.getsize(args[1])

    _post = {
        "metric.word_length": _after_word_length,
        "metric.ball": _after_ball,
        "cartan.lower_audit": _after_lower_audit,
        "cli.cache.write": _after_cache_write,
    }

    # -- installation -------------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every module-level name bound to ``original`` at ``replacement``."""
        found = 0
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))
                    found += 1
        if not found:
            raise RuntimeError(f"no binding of {original!r} found")

    def install(self):
        for module, fname, name in SPANS:
            original = getattr(module, fname)
            self._rebind(original, self._span(original, name))

        original_cached_ball = cli.cached_ball

        def cached_ball(*args, **kwargs):
            table, state = original_cached_ball(*args, **kwargs)
            self.counts["cli.cache." + state] += 1
            return table, state

        self._rebind(original_cached_ball, cached_ball)

        original_gauge_fn = metric._gauge_ceil_fn

        def gauge_ceil_fn(group):
            fn = original_gauge_fn(group)
            if fn is None:
                return None
            if fn not in self._gauge_wrappers:
                counts = self.counts

                def gauge_ceil(v):
                    counts["polytope.gauge_evals"] += 1
                    return fn(v)

                self._gauge_wrappers[fn] = gauge_ceil
            return self._gauge_wrappers[fn]

        self._rebind(original_gauge_fn, gauge_ceil_fn)

        for cls, kind in ELEMENT_CLASSES:
            original = cls.__mul__
            key = "groups.products." + kind
            counts = self.counts

            def mul(a, b, _mul=original, _key=key):
                counts[_key] += 1
                return _mul(a, b)

            cls.__mul__ = mul
            self._undo.append((cls, "__mul__", original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
