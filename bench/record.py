"""Write bench/expected.json from the program as it is now.

    python3 bench/record.py

Records, on the default seed, the exit code and stdout digest of every op of
every workload; the descent-data and class counts of every ladder document
(taken from the library directly, then confirmed through the CLI on the
relabeled copies); and the exact per-workload counts of a traced pass.  The
CLI's output bytes are part of its contract, so this is rerun only when an
intended change to that contract lands.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import run

sys.path.insert(0, run.SRC)

import traced  # noqa: E402
import workloads  # noqa: E402
from crossed_desc.descent import enumerate_descent, gauge_classes  # noqa: E402
from crossed_desc.fixtures import FixtureSpec, build_fixture  # noqa: E402


def document_counts() -> dict:
    diagrams = {f"{b}/n{n}": workloads.fattened(b, n)[0]
                for b, n in workloads.ladder(workloads.DIAGRAM_LADDER)}
    cech = workloads.CECH
    diagrams["cech"] = build_fixture(FixtureSpec(cech["kind"], cech["params"]))[1]
    return {name: {"data": len(enumerate_descent(D)), "classes": len(gauge_classes(D).reps)}
            for name, D in diagrams.items()}


def main() -> int:
    expected = {"documents": document_counts(), "digests": {}, "counts": {}}
    inputs_dir = os.path.join(run.OUT, f"record-{os.getpid()}")
    try:
        for name, make in workloads.WORKLOADS.items():
            shutil.rmtree(inputs_dir, ignore_errors=True)
            os.makedirs(inputs_dir)
            inputs = make(run.DEFAULT_SEED, inputs_dir, expected, tick=lambda: None)
            checker = run.Checker({}, require_digest=False)
            tracer = traced.Tracer()
            with tracer.installed():
                for op in inputs.ops:
                    code, out, _ = tracer.run_op(op.key, lambda: run.run_op(op))
                    error = checker.check(op, code, out)
                    if error is not None:
                        print(f"{name}: {op.key}: {error}", file=sys.stderr)
                        return 1
                    expected["digests"][op.key] = [
                        code, hashlib.sha256(out.encode("utf-8")).hexdigest()]
            m = tracer.metrics([1.0] * len(inputs.ops))
            expected["counts"][name] = {k: m[k] for k in traced.EXACT_COUNTS}
            expected["counts"][name]["doc_bytes"] = inputs.doc_bytes
            print(f"{name}: {len(inputs.ops)} ops, {expected['counts'][name]}")
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
