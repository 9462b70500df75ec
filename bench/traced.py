"""Traced replay of CLI ops, timed per layer from outside the program.

Each op still runs through `crossed_desc.cli.main(argv)`, so it makes exactly
the calls and prints exactly the bytes it does untraced.  While a `Tracer` is
installed, each public layer function in `CALLS` is replaced, in the namespace
of every module that calls it across a layer boundary, by a wrapper that
records a span around the call.  The package's files are not changed.

Nested calls (`validate_diagram` -> `validate_crossed` -> `validate_groupoid`,
`verify_bijection` -> `gauge_classes` -> `enumerate_descent`, ...) become
child spans, and a layer's self time is its spans' time minus their
children's.  The inner calls are timed where the outer call makes them rather
than replayed standalone: on a 2-core host, standalone replays of
`gauge_classes` differed from the in-place call by up to 20%, which left
`verify_bijection` with a negative self time.  Counts are taken from the
inputs and results of the calls after each op, outside its time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import astuple, dataclass

from crossed_desc.descent import vertex_object

# span name ("<layer>.<call>") -> (module of crossed_desc, function name) pairs
# to wrap: the CLI's own references and every cross-call inside the package.
CALLS = {
    "serialize.parse": [("cli", "parse_document")],
    "serialize.emit": [("cli", "dumps_canonical"), ("cli", "serialize_document")],
    "fixtures.build": [("cli", "build_fixture")],
    "groupoid.validate": [("cli", "validate_groupoid"), ("crossed", "validate_groupoid")],
    "crossed.validate": [("cli", "validate_crossed"), ("cosimplicial", "validate_crossed")],
    "crossed.validate_morphism": [("cosimplicial", "validate_crossed_morphism")],
    "cosimplicial.validate": [("cli", "validate_diagram")],
    "descent.enumerate": [("cli", "enumerate_descent"), ("descent", "enumerate_descent")],
    "descent.classify": [("cli", "gauge_classes"), ("transfer", "gauge_classes")],
    "crossed.homotopy": [("transfer", "is_weak_equivalence_crossed")],
    "transfer.weq": [("cli", "is_weak_equivalence_diagram"),
                     ("transfer", "is_weak_equivalence_diagram")],
    "transfer.verify": [("cli", "verify_bijection")],
    "transfer.lift": [("cli", "lift_descent"), ("transfer", "lift_descent"),
                      ("transfer", "lift_gauge")],
}
LAYERS = ("serialize", "fixtures", "groupoid", "crossed", "cosimplicial",
          "descent", "transfer", "cli")
EXACT_COUNTS = ("descent.candidates", "descent.gauge_candidates", "descent.data",
                "descent.classes", "transfer.lifts", "fixtures.builds",
                "serialize.parse_bytes")
MIB = 1024 * 1024


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans; None for an op's root
    op: str


def candidate_count(D) -> int:
    """Candidate triples (x, g, a) that enumerate_descent(D) tests."""
    L1, L2 = D.levels[1], D.levels[2]
    return sum(
        len(L1.g1.hom(vertex_object(D, x, 0, 1), vertex_object(D, x, 1, 1)))
        * len(L2.g2.group(vertex_object(D, x, 0, 2)))
        for x in D.levels[0].objects
    )


def gauge_candidate_count(D, members) -> int:
    """Candidate gauges (f, c) out of every descent datum in `members`."""
    L0, L1 = D.levels[0], D.levels[1]
    out_degree = Counter(L0.g1.src(m) for m in L0.g1.morphisms)
    return sum(
        out_degree[t.x] * len(L1.g2.group(vertex_object(D, t.x, 0, 1)))
        for t in members
    )


def _count(counts: Counter, name: str, args: tuple, result) -> None:
    if name == "descent.enumerate":
        counts["descent.candidates"] += candidate_count(args[0])
        counts["descent.data"] += len(result)
    elif name == "descent.classify":
        counts["descent.classes"] += len(result.reps)
        counts["descent.gauge_candidates"] += gauge_candidate_count(args[0], result.members)
    elif name == "transfer.lift":
        counts["transfer.lifts"] += 1
    elif name == "fixtures.build":
        counts["fixtures.builds"] += 1
    elif name == "serialize.parse":
        counts["serialize.parse_bytes"] += len(args[0].encode("utf-8"))
    elif name == "serialize.emit":
        counts["serialize.emit_bytes"] += len(result.encode("utf-8"))


class Tracer:
    """Spans, counts and failed calls of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # calls that raised, per layer
        self._op = ""
        self._stack: list[int] = []  # open spans
        self._calls: list[tuple] = []  # (name, args, result) of this op

    def _open(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start) -> None:
        self.spans[sid] = Span(name, start, time.perf_counter(), parent, self._op)
        self._stack.pop()

    def _wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name.split(".")[0]] += 1
                raise
            finally:
                self._close(sid, parent, name, start)
            self._calls.append((name, args, result))
            return result
        return timed

    @contextmanager
    def installed(self):
        """Wrap every call site in CALLS for the duration."""
        originals = []
        for name, sites in CALLS.items():
            for module_name, attr in sites:
                module = importlib.import_module(f"crossed_desc.{module_name}")
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
        try:
            yield
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def run_op(self, key: str, call):
        """Run `call()` as op `key` under a root span, then take its counts."""
        self._op, self._calls = key, []
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return call()
        finally:
            self._close(sid, parent, "cli", start)
            for name, args, result in self._calls:
                _count(self.counts, name, args, result)
            self._calls = []

    def metrics(self, op_scale: list[float]) -> dict[str, float]:
        """Self time per span name, counts, rates and trace coverage.

        The spans of the k-th op run are scaled by `op_scale[k]`; a span
        follows its op's root span in `spans`."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        self_time = Counter()
        op_wall = 0.0
        ops = iter(op_scale)
        for i, s in enumerate(self.spans):
            if s.parent is None:
                scale = next(ops)
                op_wall += (s.end - s.start) * scale
            self_time[s.name] += ((s.end - s.start) - covered[i]) * scale
        m = {f"{name}_s": self_time[name] for name in CALLS}
        m["cli.self_s"] = self_time["cli"]
        m["trace.coverage"] = 1.0 - self_time["cli"] / op_wall
        for key in EXACT_COUNTS + ("serialize.emit_bytes",):
            m[key] = self.counts[key]
        for layer in LAYERS:
            m[f"{layer}.errors"] = self.errors[layer]
        m["descent.candidates_per_s"] = _rate(m["descent.candidates"], m["descent.enumerate_s"])
        m["descent.gauge_candidates_per_s"] = _rate(
            m["descent.gauge_candidates"], m["descent.classify_s"])
        m["serialize.parse_mib_per_s"] = _rate(m["serialize.parse_bytes"] / MIB,
                                               m["serialize.parse_s"])
        m["serialize.emit_mib_per_s"] = _rate(m["serialize.emit_bytes"] / MIB,
                                              m["serialize.emit_s"])
        return m

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": [astuple(s) for s in self.spans]}, fh)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0
