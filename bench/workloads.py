"""Seeded inputs and op lists for the three benchmark workloads.

An op is one CLI invocation (`crossed_desc.cli.main(argv)`) plus what its
output must satisfy.  Every explicit document is a fattened diagram (or one of
its levels) written by the library's own serializer, then relabeled: each
object, 1-morphism and 2-morphism id is replaced by a fixed-width name drawn
from a seeded permutation (`x..`, `g..`, `a..`), so the three id sets stay
disjoint, document sizes do not depend on the seed, and no two ops share a
document.  Fixture specs are not relabeled; the seed picks their `lift`
targets.  `run.py` picks the op order of each pass from the seed.

Importing this module imports the package under test; `run.py` times that
import as part of set-up.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from crossed_desc.fixtures import (
    NAMED_CROSSED,
    constant_diagram,
    fatten,
    fatten_diagram,
)
from crossed_desc.serialize import (
    crossed_to_json,
    diagram_to_json,
    dumps_canonical,
    envelope,
    groupoid_to_json,
)

# (base, largest copy count) of the fattened constant diagrams that `classify`
# relabels and `transfer` builds from specs.
DIAGRAM_LADDER = (
    ("inner-s3", 7),
    ("s3-a3", 5),
    ("inner-z3", 5),
    ("fix-c-core", 5),
    ("fix-a-core", 3),
    ("fix-b-core", 3),
)
VALIDATE_DIAGRAM_LADDER = tuple((b, 6) for b in ("inner-s3", "s3-a3", "inner-z3", "fix-c-core"))
SMALL_COPIES = 4  # crossed and groupoid documents of `validate`, per base
CECH = {"kind": "cech", "params": {"base": "fix-a-core", "cover": 2}}


@dataclass
class Op:
    """One CLI call.  `key` names the input independently of the seed when the
    input does not depend on it, so recorded digests apply on every seed.
    `expect` is a subset of the output JSON; a `lift` op's output is checked
    against the diagram morphism its fixture spec `lift` builds."""

    key: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    lift: dict | None = None


@dataclass
class Inputs:
    ops: list[Op]
    doc_bytes: int  # total size of the input documents written


# -- relabeling ---------------------------------------------------------


def _groupoid_ids(g: dict, ids: dict[str, set]) -> None:
    ids["x"].update(g["objects"])
    ids["g"].update(m["id"] for m in g["morphisms"])


def _crossed_ids(c: dict, ids: dict[str, set]) -> None:
    _groupoid_ids(c["g1"], ids)
    for grp in c["g2"].values():
        ids["a"].update(grp["elements"])


def relabeling(kind: str, payload: dict, rng: random.Random) -> dict[str, str]:
    """A random bijective renaming of every id in the payload, kind by kind."""
    ids: dict[str, set] = {"x": set(), "g": set(), "a": set()}
    if kind == "groupoid":
        _groupoid_ids(payload, ids)
    elif kind == "crossed":
        _crossed_ids(payload, ids)
    else:
        for level in payload["levels"]:
            _crossed_ids(level, ids)
    if ids["x"] & ids["g"] or ids["x"] & ids["a"] or ids["g"] & ids["a"]:
        raise ValueError("object, 1-morphism and 2-morphism ids overlap")
    names = {}
    for prefix, group in ids.items():
        old = sorted(group)
        width = len(str(len(old) - 1))
        for i, new in zip(old, rng.sample(range(len(old)), len(old))):
            names[i] = f"{prefix}{new:0{width}d}"
    return names


def _relabel_groupoid(g: dict, r: dict) -> dict:
    return {
        "objects": sorted(r[x] for x in g["objects"]),
        "morphisms": sorted(
            ({"id": r[m["id"]], "source": r[m["source"]], "target": r[m["target"]]}
             for m in g["morphisms"]),
            key=lambda m: m["id"],
        ),
        "identities": {r[x]: r[m] for x, m in g["identities"].items()},
        "compose": sorted([r[a], r[b], r[c]] for a, b, c in g["compose"]),
        "inverses": {r[m]: r[n] for m, n in g["inverses"].items()},
    }


def _relabel_group(grp: dict, r: dict) -> dict:
    return {
        "elements": sorted(r[a] for a in grp["elements"]),
        "identity": r[grp["identity"]],
        "compose": sorted([r[a], r[b], r[c]] for a, b, c in grp["compose"]),
        "inverses": {r[a]: r[b] for a, b in grp["inverses"].items()},
    }


def _relabel_crossed(c: dict, r: dict) -> dict:
    return {
        "g1": _relabel_groupoid(c["g1"], r),
        "g2": {r[x]: _relabel_group(grp, r) for x, grp in c["g2"].items()},
        "twist": sorted([r[g], r[a], r[b]] for g, a, b in c["twist"]),
        "feedback": {r[a]: r[g] for a, g in c["feedback"].items()},
    }


def _relabel_map(m: dict, r: dict) -> dict:
    return {r[k]: r[v] for k, v in m.items()}


def relabel(kind: str, payload: dict, r: dict) -> dict:
    """The payload with every id renamed by `r`, lists in canonical order."""
    if kind == "groupoid":
        return _relabel_groupoid(payload, r)
    if kind == "crossed":
        return _relabel_crossed(payload, r)
    return {
        "levels": [_relabel_crossed(level, r) for level in payload["levels"]],
        "cofaces": {
            key: {part: _relabel_map(maps[part], r) for part in ("objects", "mor1", "mor2")}
            for key, maps in payload["cofaces"].items()
        },
    }


# -- documents ----------------------------------------------------------


class DocWriter:
    """Writes input documents into one directory and counts their bytes.

    `tick` is called after every document; run.py samples the host's speed
    there (and excludes that time from set-up)."""

    def __init__(self, out_dir: str, seed: int, tick):
        self.out_dir = out_dir
        self.seed = seed
        self.tick = tick
        self.doc_bytes = 0

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.out_dir, name.replace("/", "_") + ".json")
        data = text.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        self.doc_bytes += len(data)
        self.tick()
        return path

    def relabeled(self, name: str, kind: str, payload: dict) -> tuple[str, str]:
        """Write a relabeled copy; returns (seed-tagged name, path)."""
        tagged = f"{name}@seed{self.seed}"
        r = relabeling(kind, payload, random.Random(tagged))
        text = dumps_canonical(envelope(kind, relabel(kind, payload, r)))
        return tagged, self.write(tagged, text)

    def spec(self, name: str, spec: dict) -> str:
        return self.write(name, dumps_canonical(envelope("fixture-spec", spec)))


def fattened(base: str, n: int):
    """fatten_diagram(constant_diagram(base), n): (fat diagram, inclusion)."""
    return fatten_diagram(constant_diagram(NAMED_CROSSED[base]()), n)


def fatten_spec(base, n: int) -> dict:
    inner = base if isinstance(base, dict) else {
        "kind": "constant-diagram", "params": {"base": base}}
    return {"kind": "fatten", "params": {"base": inner, "copies": n}}


def ladder(bases):
    return [(b, n) for b, top in bases for n in range(1, top + 1)]


# -- workloads ----------------------------------------------------------


def classify(seed: int, out_dir: str, expected: dict, tick) -> Inputs:
    """`desc` and `desc --classes`, each on two relabeled copies of every
    ladder diagram (a copy per op), plus both on the Čech spec."""
    w = DocWriter(out_dir, seed, tick)
    ops = []
    for base, n in ladder(DIAGRAM_LADDER):
        payload = diagram_to_json(fattened(base, n)[0])
        doc = f"{base}/n{n}"
        counts = expected["documents"][doc]
        for copy, flags in enumerate(([], ["--classes"], [], ["--classes"])):
            name, path = w.relabeled(f"{doc}/c{copy}", "diagram", payload)
            ops.append(Op(" ".join(["desc", *flags, name]), ["desc", path, *flags],
                          _desc_expect(counts, flags)))
        del payload  # free it before the next, larger diagram is built
    path = w.spec("cech", CECH)
    for flags in ([], ["--classes"]):
        ops.append(Op(" ".join(["desc", *flags, "cech"]), ["desc", path, *flags],
                      _desc_expect(expected["documents"]["cech"], flags)))
    return Inputs(ops, w.doc_bytes)


def _desc_expect(counts: dict, flags: list[str]) -> dict:
    if flags:
        return {"count": counts["data"], "classCount": counts["classes"]}
    return {"count": counts["data"]}


def transfer(seed: int, out_dir: str, expected: dict, tick) -> Inputs:
    """`weq`, `transfer --trace` and two `lift --target i --trace` per fatten
    spec of the ladder, plus `transfer --trace` on the fattened Čech spec."""
    w = DocWriter(out_dir, seed, tick)
    rng = random.Random(f"transfer-targets@seed{seed}")
    ops = []
    for base, n in ladder(DIAGRAM_LADDER):
        doc = f"{base}/n{n}"
        counts = expected["documents"][doc]
        path = w.spec(f"fatten-{doc}", fatten_spec(base, n))
        ops.append(Op(f"weq fatten:{doc}", ["weq", path], {"weakEquivalence": True}))
        ops.append(Op(f"transfer --trace fatten:{doc}", ["transfer", path, "--trace"],
                      _transfer_expect(counts["classes"])))
        for i in (rng.randrange(counts["data"]), rng.randrange(counts["data"])):
            ops.append(Op(f"lift --target {i} --trace fatten:{doc}",
                          ["lift", path, "--target", str(i), "--trace"],
                          lift=fatten_spec(base, n)))
    path = w.spec("fatten-cech", fatten_spec(CECH, 2))
    ops.append(Op("transfer --trace fatten:cech", ["transfer", path, "--trace"],
                  _transfer_expect(expected["documents"]["cech"]["classes"])))
    return Inputs(ops, w.doc_bytes)


def _transfer_expect(classes: int) -> dict:
    return {"agree": True, "oracleBijective": True, "constructiveBijective": True,
            "sourceClasses": classes, "targetClasses": classes}


def validate(seed: int, out_dir: str, expected: dict, tick) -> Inputs:
    """`validate` on relabeled diagrams (n = 1-6) and on relabeled fattened
    crossed groupoids and their groupoids (n = 1-4), and `fixture` on specs."""
    w = DocWriter(out_dir, seed, tick)
    ok = {"report": {"ok": True, "violations": []}}
    ops = []
    for base, n in ladder(VALIDATE_DIAGRAM_LADDER):
        payload = diagram_to_json(fattened(base, n)[0])
        name, path = w.relabeled(f"{base}/n{n}/diagram", "diagram", payload)
        ops.append(Op(f"validate {name}", ["validate", path], {"kind": "diagram", **ok}))
        del payload  # free it before the next, larger diagram is built
    for base, n in ladder((b, SMALL_COPIES) for b, _ in DIAGRAM_LADDER):
        C = fatten(NAMED_CROSSED[base](), n)[0]
        for kind, payload in (("crossed", crossed_to_json(C)), ("groupoid", groupoid_to_json(C.g1))):
            name, path = w.relabeled(f"{base}/n{n}/{kind}", kind, payload)
            ops.append(Op(f"validate {name}", ["validate", path], {"kind": kind, **ok}))
    for base, _ in DIAGRAM_LADDER:
        specs = [("constant", "diagram", {"kind": "constant-diagram", "params": {"base": base}})]
        specs += [(f"fatten-crossed-n{n}", "crossed",
                   {"kind": "fatten", "params": {"base": base, "copies": n}}) for n in (2, 3)]
        specs += [(f"fatten-n{n}", "diagram-morphism", fatten_spec(base, n)) for n in (2, 3)]
        for label, kind, spec in specs:
            path = w.spec(f"{base}/{label}", spec)
            ops.append(Op(f"fixture {base}/{label}", ["fixture", path], {"kind": kind}))
    return Inputs(ops, w.doc_bytes)


WORKLOADS = {"classify": classify, "transfer": transfer, "validate": validate}
