"""Benchmark of the crossed-desc command line on seeded workloads.

    python3 bench/run.py --workload classify|transfer|validate \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  One client in one process sends CLI ops
(`crossed_desc.cli.main(argv)`, stdout captured) in a closed loop: each op
starts when the previous one returns.  The inputs are written by
`workloads.py` from the seed; see README.md for why each workload exists.

With `--trace 0` the ops run in as many passes as fit in `--seconds` (at
least three), each pass in its own seeded order.  An op's latency is the
median over the passes of its time scaled to a reference host speed by the
calibration chunks timed just before and after it (`to_reference`); the
end-to-end metrics are taken over those per-op medians.  With `--trace 1`
untraced and traced passes alternate (see traced.py) and the per-layer
metrics are medians over the traced passes.

Every op's output is checked: its exit code and stdout digest against
expected.json where a digest is recorded (all ops on the default seed, and
ops on fixture specs on every seed), and the invariants that relabeling keeps
on every seed.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  If an exact count differs from
expected.json the run exits 1 without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
EXPECTED = os.path.join(BENCH, "expected.json")

DEFAULT_SEED = 1
MIN_PASSES = 3  # untraced passes per run, so every per-op median has 3+ samples
MIN_SETUPS = 3  # set-ups per untraced run; cheap ones repeat until SETUP_SECONDS
SETUP_SECONDS = 2.0
MAX_SETUPS = 25
CHUNK = 20_000  # calibration-loop iterations timed before every op and set-up
REFERENCE_CHUNK_S = 0.003  # a chunk's time at the reference host speed


def calibrate(iterations: int = 1_000_000) -> float:
    """Seconds a fixed pure-Python loop takes: how fast the host runs now."""
    start = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(iterations):
        k = i & 1023
        d[k] = d.get(k, 0) + i
    return time.perf_counter() - start


def to_reference(seconds: float, chunks: list[float]) -> float:
    """`seconds` measured while calibration chunks took `chunks`, scaled to
    the reference host speed.

    The host's speed drifts by 20-30% within seconds and over minutes (other
    tenants), in step for the program and the calibration loop, so the
    end-to-end times are reported at one reference speed (see README.md)."""
    return seconds * REFERENCE_CHUNK_S * len(chunks) / sum(chunks)


def scales(chunks: list[float]) -> list[float]:
    """Per op of a pass, the factor to the reference host speed."""
    return [to_reference(1.0, chunks[k:k + 2]) for k in range(len(chunks) - 1)]


def set_up(workload: str, seed: int, inputs_dir: str, expected: dict):
    """Import the package afresh and write the workload's inputs.

    Returns (seconds at the reference host speed, seconds as measured,
    inputs).  A calibration chunk runs after every document written; its
    time is left out of the set-up time."""
    for name in list(sys.modules):
        if name in ("crossed_desc", "workloads") or name.startswith("crossed_desc."):
            del sys.modules[name]
    shutil.rmtree(inputs_dir, ignore_errors=True)
    os.makedirs(inputs_dir)
    chunks = [calibrate(CHUNK)]
    ticks = 0.0

    def tick():
        nonlocal ticks
        start = time.perf_counter()
        chunks.append(calibrate(CHUNK))
        ticks += time.perf_counter() - start

    start = time.perf_counter()
    workloads = importlib.import_module("workloads")
    inputs = workloads.WORKLOADS[workload](seed, inputs_dir, expected, tick)
    seconds = time.perf_counter() - start - ticks
    return to_reference(seconds, chunks), seconds, inputs


def run_op(op) -> tuple[int, str, float]:
    """One CLI call: (exit code, stdout, seconds)."""
    from crossed_desc.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = main(op.argv)
        except Exception:  # a traceback is a failed op, not a failed run
            traceback.print_exc(file=sys.stderr)
            code = -1
        seconds = time.perf_counter() - start
    return code, buf.getvalue(), seconds


def _matches(doc, want) -> bool:
    if isinstance(want, dict):
        return isinstance(doc, dict) and all(
            k in doc and _matches(doc[k], v) for k, v in want.items())
    return doc == want


class Checker:
    """Checks op outputs; the first output of each op is checked in full,
    later ones must repeat it byte for byte."""

    def __init__(self, digests: dict, require_digest: bool):
        self.digests = digests
        self.require_digest = require_digest
        self.seen: dict[str, tuple[int, str]] = {}
        self.morphisms: dict[str, object] = {}

    def check(self, op, code: int, out: str) -> str | None:
        """None if the output is right, else why not."""
        got = (code, hashlib.sha256(out.encode("utf-8")).hexdigest())
        if op.key in self.seen:
            return None if self.seen[op.key] == got else "output differs from an earlier pass"
        recorded = self.digests.get(op.key)
        if recorded is None and self.require_digest:
            return "no digest recorded for this op on the default seed"
        if recorded is not None and tuple(recorded) != got:
            return f"exit code and digest {got} differ from the recorded {tuple(recorded)}"
        if code != 0:
            return f"exit code {code}"
        try:
            error = self._invariants(op, json.loads(out))
        except Exception as exc:  # output the checks cannot read is wrong output
            error = f"output check raised {exc!r}"
        if error is None:
            self.seen[op.key] = got
        return error

    def _invariants(self, op, doc: dict) -> str | None:
        if not _matches(doc, op.expect):
            return f"output does not match {op.expect}"
        if op.lift is not None:
            return self._lift(op.lift, doc)
        return None

    def _lift(self, spec: dict, doc: dict) -> str | None:
        from crossed_desc.descent import (
            DescentDatum, GaugeTransformation, is_descent_datum, is_gauge)
        from crossed_desc.fixtures import FixtureSpec, build_fixture
        from crossed_desc.transfer import apply_morphism

        key = json.dumps(spec, sort_keys=True)
        if key not in self.morphisms:
            self.morphisms[key] = build_fixture(FixtureSpec(spec["kind"], spec["params"]))[1]
        F = self.morphisms[key]
        target = DescentDatum(**doc["target"])
        lifted = DescentDatum(**doc["lifted"])
        witness = GaugeTransformation(**doc["witness"])
        if not is_descent_datum(F.target, target)[0]:
            return "lift target is not a descent datum"
        if not is_descent_datum(F.source, lifted)[0]:
            return "lifted triple is not a descent datum"
        if not is_gauge(F.target, witness, target, apply_morphism(F, lifted))[0]:
            return "lift witness is not a gauge from the target to the image"
        return None


def run_pass(ops, checker: Checker, stats: dict, call=run_op):
    """Every op once, in order, between calibration chunks; returns the
    latencies and the chunk times (one more than ops: op i ran between
    chunks i and i + 1)."""
    latencies, chunks = [], [calibrate(CHUNK)]
    for op in ops:
        code, out, seconds = call(op)
        chunks.append(calibrate(CHUNK))
        latencies.append(seconds)
        stats["attempted"] += 1
        error = checker.check(op, code, out)
        if error is not None:
            stats["failed"] += 1
            print(f"op failed: {op.key}: {error}", file=sys.stderr)
    return latencies, chunks


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _another_pass(start: float, passes: int, least: int, seconds: float) -> bool:
    """Whether to run one more pass: below `least`, or it would still end
    within `seconds` at the mean pass time so far."""
    if passes < least:
        return True
    return (time.perf_counter() - start) * (passes + 1) / passes <= seconds


def orders(ops, seed: int):
    """The op order of each pass, drawn from the seed.  A new order per pass
    puts pauses that follow the op sequence (garbage collection) on other ops
    in each pass, so the per-op median can drop them."""
    rng = random.Random(f"order@seed{seed}")
    while True:
        order = list(range(len(ops)))
        rng.shuffle(order)
        yield order


def measure(ops, checker, stats, seconds: float, seed: int):
    """Untraced passes for about `seconds` (at least MIN_PASSES); per-op
    median latencies at the reference host speed, and as measured."""
    scaled, raw = [[] for _ in ops], [[] for _ in ops]
    start = time.perf_counter()
    passes = 0
    order_of_pass = orders(ops, seed)
    while _another_pass(start, passes, MIN_PASSES, seconds):
        order = next(order_of_pass)
        latencies, chunks = run_pass([ops[i] for i in order], checker, stats)
        for i, t, f in zip(order, latencies, scales(chunks)):
            scaled[i].append(t * f)
            raw[i].append(t)
        passes += 1
    stats["passes"] = passes
    return [statistics.median(s) for s in scaled], [statistics.median(s) for s in raw]


def measure_traced(ops, checker, stats, seconds: float, seed: int, spans_path: str) -> dict:
    """Alternate untraced and traced passes for about `seconds` (at least one
    pair); per-layer metrics are medians over the traced passes."""
    from traced import EXACT_COUNTS, Tracer

    runs, overheads = [], []
    start = time.perf_counter()
    order_of_pass = orders(ops, seed)
    while _another_pass(start, len(runs), 1, seconds):
        ops_in_order = [ops[i] for i in next(order_of_pass)]
        latencies, chunks = run_pass(ops_in_order, checker, stats)
        untraced = sum(t * f for t, f in zip(latencies, scales(chunks)))
        tracer = Tracer()
        failed = stats["failed"]
        with tracer.installed():
            latencies, chunks = run_pass(ops_in_order, checker, stats,
                                         lambda op: tracer.run_op(op.key, lambda: run_op(op)))
        tracer.errors["cli"] += stats["failed"] - failed
        factors = scales(chunks)
        overheads.append(sum(t * f for t, f in zip(latencies, factors)) / untraced)
        runs.append(tracer.metrics(factors))
    stats["passes"] = len(runs)
    for key in EXACT_COUNTS:
        if len({m[key] for m in runs}) != 1:
            raise CountDrift(f"{key} differs between traced passes: {[m[key] for m in runs]}")
    tracer.dump(spans_path)
    out = {k: statistics.median(m[k] for m in runs) for k in runs[0]}
    out["trace.overhead"] = statistics.median(overheads)
    return out


class CountDrift(Exception):
    """An exact count differs from the recorded one: no number is reported."""


def check_counts(workload: str, expected: dict, counts: dict) -> None:
    want = expected["counts"][workload]
    for key, value in counts.items():
        if key in want and want[key] != value:
            raise CountDrift(f"{workload}: {key} is {value}, recorded {want[key]}")


def timed_set_ups(args, inputs_dir: str, expected: dict):
    """Set-up times at the reference host speed, and the last set-up's
    inputs.  A traced run sets up once and reports no set-up time."""
    times, spent = [], 0.0
    while not times or (not args.trace and (
            len(times) < MIN_SETUPS or (spent < SETUP_SECONDS and len(times) < MAX_SETUPS))):
        scaled, seconds, inputs = set_up(args.workload, args.seed, inputs_dir, expected)
        times.append(scaled)
        spent += seconds
    return times, inputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("classify", "transfer", "validate"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "crossed_desc")):
        print(f"no package source under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    inputs_dir = os.path.join(OUT, f"inputs-{os.getpid()}")
    try:
        setups, inputs = timed_set_ups(args, inputs_dir, expected)
        check_counts(args.workload, expected, {"doc_bytes": inputs.doc_bytes})
        checker = Checker(expected["digests"], args.seed == DEFAULT_SEED)
        stats = {"attempted": 0, "failed": 0}
        calib = [calibrate()]
        if args.trace:
            spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
            metrics = measure_traced(inputs.ops, checker, stats, args.seconds, args.seed, spans)
            check_counts(args.workload, expected, metrics)
            metrics["cli.ops"] = len(inputs.ops)
            note = ""
        else:
            per_op, raw = measure(inputs.ops, checker, stats, args.seconds, args.seed)
            metrics = {
                "wall_s": sum(per_op),
                "op_p50_ms": statistics.median(per_op) * 1e3,
                "op_p90_ms": percentile(per_op, 90) * 1e3,
                "setup_s": statistics.median(setups),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            note = (f"; as measured: wall {sum(raw):.3f} s, p50 "
                    f"{statistics.median(raw) * 1e3:.3f} ms, p90 {percentile(raw, 90) * 1e3:.3f} ms"
                    f"; {len(setups)} set-ups")
        calib.append(calibrate())
        metrics["host.calib_s"] = statistics.mean(calib)
    except CountDrift as exc:
        print(f"exact count drifted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in _benchmark_metrics(args.trace)}
    print(f"{args.workload} seed={args.seed}: {len(inputs.ops)} ops x {stats['passes']} "
          f"passes; latency percentiles over {len(inputs.ops)} per-op medians; "
          f"host calibration {calib[0]:.3f}/{calib[1]:.3f} s{note}")
    print(json.dumps({
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _benchmark_metrics(trace: int) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


if __name__ == "__main__":
    sys.exit(main())
