"""Command-line front end.

Commands: validate, desc, weq, transfer, lift, fixture.  All input and output
is UTF-8 JSON; output is canonical (sorted keys and ids) so identical inputs
produce identical bytes.  Exit codes: 0 success, 1 semantic failure, 2 parse
failure, 3 resource bound exceeded, 4 precondition failure.  `main` is the
one place an error becomes an exit code, so an error exits the same way from
every command.  `validate` on a diagram morphism checks its level maps, their
naturality, and its source and target diagrams.

`main` runs each command with automatic cyclic garbage collection paused, and
turns it back on afterwards only if it was on before.  Loading a large
document allocates hundreds of thousands of objects that live until the
command returns, and the collector would otherwise walk them again and
again.  Pausing it loses nothing, because a command makes no reference
cycles: everything it allocates is freed by reference counting (argparse's
help and usage-error exits leave a few dozen objects to a later collection).
For that reason the canonical writer is a module-level function, not a
closure that refers to itself, and the tests check that every command
leaves no cyclic garbage.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys

from .cosimplicial import (
    DiagramMorphism,
    validate_diagram,
    validate_diagram_morphism,
)
from .crossed import validate_crossed
from .descent import DescentDatum, enumerate_descent, gauge_classes
from .fixtures import build_fixture
from .groupoid import validate_groupoid
from .serialize import dumps_canonical, parse_document, serialize_document
from .transfer import is_weak_equivalence_diagram, lift_descent
# `cmd_transfer` checks F itself; bench/traced.py times the rest under this name
from .transfer import _verify_bijection as verify_bijection
from .validation import (
    DEFAULT_BOUND,
    CrossedDescError,
    DomainError,
    LoadError,
    ResourceBoundError,
)

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_PARSE = 2
EXIT_BOUND = 3
EXIT_PRECONDITION = 4


def _emit(obj) -> None:
    sys.stdout.write(dumps_canonical(obj))


def _load(path: str) -> tuple[str, str, object]:
    """(document kind, structure kind, structure); a fixture spec is built."""
    with open(path, encoding="utf-8") as fh:
        doc_kind, structure = parse_document(fh.read())
    if doc_kind == "fixture-spec":
        return (doc_kind, *build_fixture(structure))
    return doc_kind, doc_kind, structure


def _load_as(path: str, want: str):
    """The structure of kind `want` in the document at `path`."""
    doc_kind, kind, structure = _load(path)
    if kind != want:
        if doc_kind == "fixture-spec":
            raise DomainError(f"fixture produces a {kind}, not a {want.replace('-', ' ')}")
        raise DomainError(f"expected a {want} document, got kind {kind!r}")
    return structure


# -- commands -----------------------------------------------------------


def cmd_validate(args) -> int:
    doc_kind, kind, structure = _load(args.path)
    if kind == "groupoid":
        report = validate_groupoid(structure)
    elif kind == "crossed":
        report = validate_crossed(structure)
    elif kind == "diagram":
        report = validate_diagram(structure)
    else:
        report = validate_diagram_morphism(structure)
    _emit({"kind": doc_kind, "report": report.as_json()})
    return EXIT_OK if report.ok else EXIT_SEMANTIC


def cmd_desc(args) -> int:
    D = _load_as(args.path, "diagram")
    if args.classes:
        table = gauge_classes(D, args.bound)
        # members are sorted and each rep is the least of its class, so one
        # pass groups the classes in rep order with their members sorted
        classes: dict[DescentDatum, list[DescentDatum]] = {}
        for m in table.members:
            classes.setdefault(table.rep_of[m], []).append(m)
        out = {
            "count": len(table.members),
            "classCount": len(classes),
            "classes": [
                {
                    "representative": rep.as_json(),
                    "members": [m.as_json() for m in members],
                    "witnesses": [
                        {"member": m.as_json(), "gauge": table.witnesses[m].as_json()}
                        for m in members
                    ],
                }
                for rep, members in classes.items()
            ],
        }
    else:
        data = enumerate_descent(D, args.bound)
        out = {"count": len(data), "data": [t.as_json() for t in data]}
    _emit(out)
    return EXIT_OK


def cmd_weq(args) -> int:
    F = _load_as(args.path, "diagram-morphism")
    ok, report = is_weak_equivalence_diagram(F)
    _emit({"weakEquivalence": ok, "report": report.as_json()})
    return EXIT_OK if ok else EXIT_SEMANTIC


def cmd_transfer(args) -> int:
    F = _load_as(args.path, "diagram-morphism")
    ok, report = is_weak_equivalence_diagram(F)
    if not ok:
        _emit({"weakEquivalence": False, "report": report.as_json()})
        return EXIT_PRECONDITION
    result = verify_bijection(F, args.bound)
    _emit(result.as_json(include_traces=args.trace))
    return EXIT_OK


def cmd_lift(args) -> int:
    F = _load_as(args.path, "diagram-morphism")
    ok, report = is_weak_equivalence_diagram(F)
    if not ok:
        _emit({"weakEquivalence": False, "report": report.as_json()})
        return EXIT_PRECONDITION
    target = _parse_target(F, args.target, args.bound)
    lifted, witness, trace = lift_descent(F, target)
    out = {
        "target": target.as_json(),
        "lifted": lifted.as_json(),
        "witness": witness.as_json(),
    }
    if args.trace:
        out["trace"] = trace.as_json()
    _emit(out)
    return EXIT_OK


def _parse_target(F: DiagramMorphism, spec: str, bound: int) -> DescentDatum:
    """A target datum: an index into the canonical enumeration (of at most
    `bound` candidates) spelt as `str` spells it, or a JSON object
    {"x":..., "g":..., "a":...}."""
    try:
        index = int(spec)
    except ValueError:
        index = None
    if index is None or spec != str(index):
        try:
            d = json.loads(spec)
        except ValueError:  # a JSONDecodeError, or an integer over the digit limit
            raise LoadError(f"target {spec!r} is neither an index nor JSON") from None
        if not (isinstance(d, dict) and all(isinstance(d.get(k), str) for k in "xga")):
            raise LoadError(f"target {spec!r} is not an object with string x, g and a")
        return DescentDatum(d["x"], d["g"], d["a"])
    data = enumerate_descent(F.target, bound)
    if not 0 <= index < len(data):
        raise DomainError(f"target index {index} out of range (0..{len(data) - 1})")
    return data[index]


def cmd_fixture(args) -> int:
    doc_kind, kind, structure = _load(args.path)
    if doc_kind != "fixture-spec":
        raise DomainError(f"expected a fixture-spec document, got kind {doc_kind!r}")
    sys.stdout.write(serialize_document(kind, structure))
    return EXIT_OK


# -- argument parsing ---------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept: parsing does
    not change it, so every `main` call in a process can share it."""
    parser = argparse.ArgumentParser(
        prog="crossed-desc",
        description="Finite crossed groupoids: descent data, gauge classes, transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, bound=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", help="input document (UTF-8 JSON envelope)")
        if bound:
            p.add_argument("--bound", type=int, default=DEFAULT_BOUND,
                           help="candidate bound (default %(default)s)")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "run the validator for the document's kind", bound=False)
    p_desc = add("desc", cmd_desc, "enumerate descent data of a diagram")
    p_desc.add_argument("--classes", action="store_true",
                        help="classify up to gauge equivalence with witnesses")
    add("weq", cmd_weq, "check a diagram morphism for weak equivalence", bound=False)
    p_tr = add("transfer", cmd_transfer, "verify the induced class bijection both ways")
    p_tr.add_argument("--trace", action="store_true", help="include lift traces")
    p_lift = add("lift", cmd_lift, "lift one target descent datum")
    p_lift.add_argument("--target", required=True,
                        help="enumeration index or JSON triple {x,g,a}")
    p_lift.add_argument("--trace", action="store_true", help="include the lift trace")
    add("fixture", cmd_fixture, "expand a fixture spec into an explicit document",
        bound=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code, with automatic cyclic
    collection paused until it returns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (json.JSONDecodeError, LoadError, OSError, UnicodeDecodeError) as exc:
        _emit({"error": str(exc)})
        return EXIT_PARSE
    except ResourceBoundError as exc:
        _emit({"error": str(exc)})
        return EXIT_BOUND
    except DomainError as exc:
        _emit({"error": str(exc)})
        return EXIT_PRECONDITION
    except CrossedDescError as exc:
        _emit({"error": str(exc)})
        return EXIT_SEMANTIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
