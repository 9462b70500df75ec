import ast
import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from crossed_desc import cli, fixtures, transfer
from crossed_desc.cli import _build_parser, main
from crossed_desc.fixtures import (
    NAMED_CROSSED,
    FixtureSpec,
    constant_diagram,
    fatten,
    fatten_diagram,
    fix_a,
    fix_a_core,
    fix_b_core,
    fix_c_core,
)
from crossed_desc.serialize import (
    KINDS,
    _WRITERS,
    diagram_to_json,
    envelope,
    dumps_canonical,
    parse_document,
    serialize_document,
)
from crossed_desc.validation import CrossedDescError

from oracles import json_dumps_canonical


@pytest.fixture
def run(capsys):
    def _run(*args):
        code = main(list(args))
        return code, capsys.readouterr().out

    return _run


@pytest.fixture
def fixa_doc(tmp_path):
    path = tmp_path / "fixa.json"
    path.write_text(serialize_document("diagram", fix_a()), encoding="utf-8")
    return str(path)


@pytest.fixture
def fixa_core_doc(tmp_path):
    path = tmp_path / "fixa-core.json"
    path.write_text(serialize_document("crossed", fix_a_core()), encoding="utf-8")
    return str(path)


@pytest.fixture
def fat_spec_doc(tmp_path):
    path = tmp_path / "fat-spec.json"
    payload = {
        "kind": "fatten",
        "params": {
            "base": {"kind": "constant-diagram", "params": {"base": "fix-a-core"}},
            "copies": 2,
        },
    }
    path.write_text(dumps_canonical(envelope("fixture-spec", payload)), encoding="utf-8")
    return str(path)


def test_round_trip_is_byte_identical():
    for kind, structure in (
        ("crossed", fix_a_core()),
        ("crossed", fix_b_core()),
        ("diagram", fix_a()),
    ):
        doc = serialize_document(kind, structure)
        kind2, parsed = parse_document(doc)
        assert kind2 == kind
        assert serialize_document(kind2, parsed) == doc


def test_validate_ok(run, fixa_doc, fixa_core_doc):
    for path in (fixa_doc, fixa_core_doc):
        code, out = run("validate", path)
        assert code == 0
        assert json.loads(out)["report"]["ok"] is True


def test_validate_reports_broken_entry(run, tmp_path, fixa_core_doc):
    with open(fixa_core_doc, encoding="utf-8") as fh:
        doc = json.loads(fh.read())
    # break one twist entry: Peiffer and equivariance checks must flag it
    doc["payload"]["twist"][-1][2] = doc["payload"]["twist"][0][2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run("validate", str(bad))
    assert code == 1
    rules = {v["rule"] for v in json.loads(out)["report"]["violations"]}
    assert rules  # cites the violated axioms by stable rule tag
    assert rules & {"twist-unit", "twist-bijective", "peiffer", "equivariance"}


def _write(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _violations(out):
    return [(v["rule"], v["detail"]) for v in json.loads(out)["report"]["violations"]]


CECH_SPEC = {"kind": "cech", "params": {"base": "fix-a-core", "cover": 2}}


def test_validate_cover_exactly(run, tmp_path):
    """The 2-index cover is valid by the power check of each level plus the
    exhaustive coface checks; no check is sampled."""
    code, out = run("validate", _write(tmp_path, "cech", envelope("fixture-spec", CECH_SPEC)))
    assert code == 0
    assert json.loads(out)["report"] == {"ok": True, "violations": []}


def test_validate_over_the_check_bound_exits_3(run, tmp_path):
    """The inclusion into a fattened cover has no power check: its level-3
    map alone needs 2^32 homomorphism checks, so the validator refuses
    instead of sampling."""
    spec = {"kind": "fatten", "params": {"base": CECH_SPEC, "copies": 2}}
    code, out = run("validate", _write(tmp_path, "fat-cech", envelope("fixture-spec", spec)))
    assert code == 3
    assert "error" in json.loads(out)


def test_validate_reports_missing_composite(run, tmp_path):
    doc = json.loads(serialize_document("crossed", fatten(fix_c_core(), 2)[0]))
    del doc["payload"]["g1"]["compose"][0]
    code, out = run("validate", _write(tmp_path, "missing", doc))
    assert code == 1
    found = _violations(out)
    assert ("composition-domain", "composable pair (0@0.0, 0@0.0) undefined") in found
    # the crossed axioms skip what they cannot evaluate instead of citing it
    assert {rule for rule, _ in found} == {
        "composition-domain", "unit-law", "inverse-law", "associativity"}


@pytest.mark.parametrize(
    "image, extra",
    [
        # another object's 2-morphism: its feedback differs as well
        ("2.1@1", [("morphism-feedback", "level 0: feedback(2.1) not preserved")]),
        # no 2-morphism at all: nothing else can be evaluated
        ("ghost", []),
    ],
)
def test_validate_reports_level_map_off_the_image_object(run, tmp_path, image, extra):
    doc = json.loads(serialize_document("diagram-morphism", fatten_diagram(fix_a(), 2)[1]))
    doc["payload"]["levels"][0]["mor2"]["2.1"] = image
    code, out = run("validate", _write(tmp_path, "astray", doc))
    assert code == 1
    assert _violations(out) == [
        ("morphism-g2", "level 0: image of 2.1 is not at the image object"), *extra]


@pytest.mark.parametrize(
    "kind, structure, prefix",
    [
        ("crossed", NAMED_CROSSED["s3-a3"](), ""),
        ("diagram", constant_diagram(NAMED_CROSSED["s3-a3"]()), "level 0: "),
    ],
    ids=["crossed", "diagram"],
)
def test_validate_reports_missing_group_product(run, tmp_path, kind, structure, prefix):
    """A g2 table without one product loads; the validator names the product
    as undefined and skips every other check that needs it."""
    doc = json.loads(serialize_document(kind, structure))
    payload = doc["payload"] if kind == "crossed" else doc["payload"]["levels"][0]
    del payload["g2"]["*"]["compose"][0]
    code, out = run("validate", _write(tmp_path, "no-product", doc))
    assert code == 1
    assert _violations(out) == [
        ("group-closure", f"{prefix}g2(*): 2.012 . 2.012 is undefined")]


@pytest.mark.parametrize(
    "kind, structure, prefix",
    [
        ("crossed", NAMED_CROSSED["s3-a3"](), ""),
        ("diagram", constant_diagram(NAMED_CROSSED["s3-a3"]()), "level 0: "),
    ],
    ids=["crossed", "diagram"],
)
def test_validate_reports_missing_group_inverse(run, tmp_path, kind, structure, prefix):
    """A g2 table without one inverse entry loads; the validator names the
    inverse as undefined and skips the checks that need it."""
    doc = json.loads(serialize_document(kind, structure))
    payload = doc["payload"] if kind == "crossed" else doc["payload"]["levels"][0]
    del payload["g2"]["*"]["inverses"]["2.120"]
    code, out = run("validate", _write(tmp_path, "no-inverse", doc))
    assert code == 1
    assert _violations(out) == [
        ("group-inverse", f"{prefix}g2(*): inverse of 2.120 is undefined")]


def _object_to_ghost(levels):
    levels[0]["objects"]["*"] = "ghost"


def _automorphism_across_copies(levels):
    levels[0]["mor1"]["021"] = "021@0.1"


@pytest.mark.parametrize(
    "base, edit, violations",
    [
        ("fix-c-core", _object_to_ghost, [
            ("pi0", "level 0: image ghost of object * is not an object of the target"),
            ("pi0", "level 0: induced component map is not surjective"),
        ]),
        ("s3-a3", _automorphism_across_copies, [
            ("pi1", "level 0: induced map on pi1 at * leaves the automorphisms of *@0"),
        ]),
    ],
    ids=["object-to-unknown-id", "automorphism-to-non-automorphism"],
)
def test_level_map_off_the_target_is_not_a_weak_equivalence(
    run, tmp_path, base, edit, violations
):
    """A level map sending an object or an automorphism off the target's is
    reported: `weq` exits 1, and `transfer` and `lift` refuse with exit 4."""
    doc = json.loads(serialize_document(
        "diagram-morphism", fatten_diagram(constant_diagram(NAMED_CROSSED[base]()), 2)[1]))
    edit(doc["payload"]["levels"])
    path = _write(tmp_path, "astray", doc)
    for command, extra, exit_code in (
        ("weq", (), 1), ("transfer", (), 4), ("lift", ("--target", "0"), 4)
    ):
        code, out = run(command, path, *extra)
        assert code == exit_code
        assert json.loads(out)["weakEquivalence"] is False
        assert _violations(out) == violations


def test_malformed_json_exits_2(run, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _ = run("validate", str(bad))
    assert code == 2


def _drop_morphism_id(doc):
    del doc["payload"]["g1"]["morphisms"][0]["id"]


def _coface_key_out_of_range(doc):
    cofaces = doc["payload"]["cofaces"]
    cofaces["5,0"] = cofaces.pop("0,0")


def _long_compose_row(doc):
    doc["payload"]["g1"]["compose"][0].append("extra")


def _twist_key_unknown_2_morphism(doc):
    doc["payload"]["twist"][0][1] = "2.ghost"


def _twist_value_unknown_2_morphism(doc):
    doc["payload"]["twist"][0][2] = "2.ghost"


class _RepeatedKey(dict):
    """A JSON object that `json.dumps` writes with its first key named twice,
    the first time with the last key's value: the encoder writes the pairs
    `items()` lists, and a reader that lets the last one win sees no change."""

    def items(self):
        pairs = list(super().items())
        return [(pairs[0][0], pairs[-1][1]), *pairs]


def _repeat_key_of(*path):
    def edit(doc):
        *parents, last = ("payload", *path)
        obj = doc
        for key in parents:
            obj = obj[key]
        obj[last] = _RepeatedKey(obj[last])
    return edit


@pytest.mark.parametrize(
    "kind, edit, extra",
    [
        ("crossed", _drop_morphism_id, ()),
        ("diagram", _coface_key_out_of_range, ()),
        ("crossed", _long_compose_row, ()),
        ("crossed", _twist_key_unknown_2_morphism, ()),
        ("crossed", _twist_value_unknown_2_morphism, ()),
        ("fat-spec", None, ("--target", '{"x": "*"}')),
        ("fat-spec", None, ("--target", "[1]")),
        ("spec", {"kind": "fatten", "params": {"base": "fix-a-core", "copies": "x"}}, ()),
        ("spec", {"kind": "fatten", "params": {"copies": 2}}, ()),
        ("spec", {"kind": "cech", "params": {"base": "fix-a-core", "cover": [1]}}, ()),
        ("spec", {"kind": "normal-subgroup", "params": {"group": "s3", "subgroup": 5}}, ()),
        ("spec", {"kind": "fatten", "params": {"base": {"kind": "inner"}}}, ()),
        ("spec", {"kind": "fatten", "params": {"base": {"kind": "fatten", "params": [1]}}},
         ()),
        ("crossed", _repeat_key_of("g1", "identities"), ()),
        ("crossed", _repeat_key_of("g1", "inverses"), ()),
        ("crossed", _repeat_key_of("g2", "*", "inverses"), ()),
        ("crossed", _repeat_key_of("feedback"), ()),
        ("crossed", _repeat_key_of("g2"), ()),
        ("diagram", _repeat_key_of("cofaces"), ()),
        ("spec", {"kind": "cech", "params": {"base": "fix-a-core", "cover": 2.7}}, ()),
        ("spec", {"kind": "cech", "params": {"base": "fix-a-core", "cover": True}}, ()),
        ("spec", {"kind": "cech", "params": {"base": "fix-a-core", "cover": "2"}}, ()),
        ("spec", {"kind": "fatten", "params": {"base": "fix-a-core", "copies": 2.0}}, ()),
        ("spec", {"kind": "fatten", "params": {"base": "fix-a-core", "copies": True}}, ()),
    ],
    ids=["morphism-without-id", "coface-key-5-0", "compose-row-of-4",
         "twist-key-unknown-2-morphism", "twist-value-unknown-2-morphism",
         "target-missing-keys", "target-not-an-object", "fatten-copies-not-int",
         "fatten-without-base", "cech-cover-list", "subgroup-not-a-list",
         "nested-inner-without-group", "nested-params-list",
         "repeated-identities-key", "repeated-inverses-key", "repeated-group-inverses-key",
         "repeated-feedback-key", "repeated-g2-key", "repeated-cofaces-key",
         "cech-cover-float", "cech-cover-bool", "cech-cover-string",
         "fatten-copies-float", "fatten-copies-bool"],
)
def test_malformed_input_exits_2(
    run, tmp_path, fixa_doc, fixa_core_doc, fat_spec_doc, kind, edit, extra
):
    if kind == "spec":
        # the command builds a fixture spec, so check both commands that build one
        path = tmp_path / "spec.json"
        path.write_text(dumps_canonical(envelope("fixture-spec", edit)), encoding="utf-8")
        commands = ("fixture", "validate")
    else:
        path = {"crossed": fixa_core_doc, "diagram": fixa_doc, "fat-spec": fat_spec_doc}[kind]
        if edit is not None:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            edit(doc)
            path = tmp_path / "malformed.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
        commands = ("lift",) if extra else ("validate",)
    for command in commands:
        code, out = run(command, str(path), *extra)
        assert code == 2
        assert "error" in json.loads(out)


def _conflicting_row(rows):
    """Insert, before the last row of a table list, a row that names the same
    key: a copy of a morphism row, or a composite or twist with another
    result."""
    last = rows[-1]
    if isinstance(last, dict):
        rows.insert(-1, dict(last))
    else:
        rows.insert(-1, [*last[:-1], next(r[-1] for r in rows if r[-1] != last[-1])])


@pytest.mark.parametrize(
    "table, message",
    [
        (lambda p: p["g1"]["morphisms"], "groupoid payload names one key twice in 'morphisms'"),
        (lambda p: p["g1"]["compose"], "groupoid payload names one key twice in 'compose'"),
        (lambda p: p["g2"]["*"]["compose"], "group payload names one key twice in 'compose'"),
        (lambda p: p["twist"], "crossed payload names one key twice in 'twist'"),
    ],
    ids=["groupoid-morphisms", "groupoid-compose", "group-compose", "twist"],
)
def test_repeated_table_key_exits_2(run, tmp_path, table, message):
    """A table list that names one key twice is refused, rather than letting
    the later row win over a contradicting earlier one unseen."""
    doc = json.loads(serialize_document("crossed", fix_c_core()))
    _conflicting_row(table(doc["payload"]))
    assert run("validate", _write(tmp_path, "repeated", doc)) == (2, _error_bytes(message))


def _pairs(table):
    return [list(pair) for pair in table.items()]


def _respell_coface(key, keep):
    """Coface "0,0" under the key `key`; with `keep`, a copy of it whose
    mor2 sends the unit to the other element goes under `key`, before the
    valid "0,0", so a reader that read both as (0, 0) would let "0,0" win."""
    def edit(p):
        maps = p["cofaces"]["0,0"]
        broken = json.loads(json.dumps(maps))
        broken["mor2"]["2.0"] = "2.1"
        rest = {k: v for k, v in p["cofaces"].items() if k != "0,0"}
        p["cofaces"] = {key: broken, "0,0": maps, **rest} if keep else {key: maps, **rest}
    return edit


def _set(path, value):
    def edit(p):
        *parents, last = path
        for key in parents:
            p = p[key]
        p[last] = value(p[last])
    return edit


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        ("diagram", _respell_coface(" 0,0", True), "bad coface key ' 0,0'; expected 'p,k'"),
        ("diagram", _respell_coface("+0,0", False), "bad coface key '+0,0'; expected 'p,k'"),
        ("diagram", _respell_coface("00,0", False), "bad coface key '00,0'; expected 'p,k'"),
        ("diagram", _respell_coface("0_0,0", False), "bad coface key '0_0,0'; expected 'p,k'"),
        ("crossed", _set(("g1", "objects"), "".join),
         "groupoid payload 'objects' is not a JSON array"),
        ("crossed", _set(("g1", "compose"), lambda rows: ["".join(r) for r in rows]),
         "groupoid payload 'compose' has a row that is not a JSON array"),
        ("crossed", _set(("feedback",), lambda _: [["2.0", "0"], ["2.1", "x"], ["2.1", "1"]]),
         "crossed payload 'feedback' is not a JSON object"),
        ("crossed", _set(("g1", "identities"), _pairs),
         "groupoid payload 'identities' is not a JSON object"),
        ("crossed", _set(("g2", "*", "inverses"), _pairs),
         "group payload 'inverses' is not a JSON object"),
        ("diagram", _set(("cofaces", "1,2", "mor1"), _pairs),
         "coface payload 'mor1' is not a JSON object"),
        ("spec", _set(("params",), lambda _: [["base", "fix-c-core"], ["copies", 2], ["copies", 3]]),
         "fixture-spec payload 'params' is not a JSON object"),
    ],
    ids=["coface-key-space-beside-valid", "coface-key-plus", "coface-key-leading-zero",
         "coface-key-underscore", "objects-string", "compose-rows-strings",
         "feedback-pairs", "identities-pairs", "group-inverses-pairs", "coface-mor1-pairs",
         "spec-params-pairs"],
)
def test_table_of_another_json_type_exits_2(run, tmp_path, kind, edit, message):
    """A table is read only as the JSON type and spelling the writer gives it:
    a string is not read as its characters, an array of pairs not as an
    object, and a coface key only as "p,k"; the message names the field."""
    doc = {
        "crossed": lambda: json.loads(serialize_document("crossed", fix_c_core())),
        "diagram": lambda: json.loads(serialize_document("diagram", constant_diagram(fix_c_core()))),
        "spec": lambda: envelope("fixture-spec", {"kind": "fatten", "params": {}}),
    }[kind]()
    edit(doc["payload"])
    assert run("validate", _write(tmp_path, "retyped", doc)) == (2, _error_bytes(message))


def _fatten_chain(depth):
    spec = "fix-a-core"
    for _ in range(depth):
        spec = {"kind": "fatten", "params": {"base": spec}}
    return envelope("fixture-spec", spec)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000 + "]" * 100_000, "document nests too deeply"),
        (json.dumps(_fatten_chain(400)), "fixture spec nests too deeply"),
    ],
    ids=["nested-arrays", "nested-fatten-spec"],
)
def test_deep_nesting_exits_2(run, tmp_path, text, message):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert run("validate", str(path)) == (2, _error_bytes(message))


def test_fatten_of_a_nested_diagram_morphism_exits_2(run, tmp_path):
    """A fatten spec whose nested base builds a diagram morphism (the
    fattening of a diagram) names what the base must produce."""
    diagram = {"kind": "constant-diagram", "params": {"base": "fix-c-core"}}
    base = {"kind": "fatten", "params": {"base": diagram, "copies": 2}}
    doc = envelope("fixture-spec", {"kind": "fatten", "params": {"base": base, "copies": 2}})
    assert run("validate", _write(tmp_path, "nested", doc)) == (
        2, _error_bytes("nested fixture does not produce a crossed groupoid or a diagram"))


@pytest.mark.parametrize(
    "base, message",
    [
        ({"kind": "normal-subgroup", "params": {"group": "z2", "subgroup": ["0", "1"]}}, None),
        ({"kind": "constant-diagram", "params": {"base": "fix-c-core"}},
         "nested fixture does not produce a crossed groupoid"),
        ("no-such", "unknown crossed-groupoid name 'no-such'"),
        (5, "crossed-groupoid reference must be a name or a nested spec"),
    ],
    ids=["nested-normal-subgroup", "nested-diagram", "unknown-name", "not-a-reference"],
)
def test_cech_base_is_a_crossed_groupoid_name_or_spec(run, tmp_path, base, message):
    """A `cech` base names a crossed groupoid or nests a spec that builds
    one.  The nested identity crossed module on Z/2 is fix-c-core (cover 1:
    the default cover 2 of a Z/2 lower group is over the size bound)."""

    def classes(base):
        doc = envelope("fixture-spec", {"kind": "cech", "params": {"base": base, "cover": 1}})
        return run("desc", _write(tmp_path, "cech", doc), "--classes")

    if message is None:
        code, out = classes(base)
        assert code == 0 and (code, out) == classes("fix-c-core")
    else:
        assert classes(base) == (2, _error_bytes(message))


_DIAGRAM_OF = {"kind": "constant-diagram", "params": {"base": "fix-a-core"}}


@pytest.mark.parametrize(
    "command, spec, message",
    [
        ("transfer", {"kind": "fatten", "params": {"base": _DIAGRAM_OF, "copy": 5}},
         "unknown 'fatten' fixture parameter 'copy'"),
        ("desc", {"kind": "cech", "params": {"base": "fix-a-core", "covers": 1}},
         "unknown 'cech' fixture parameter 'covers'"),
        ("fixture", {"kind": "constant-diagram", "params": {"base": "fix-a-core", "copies": 2}},
         "unknown 'constant-diagram' fixture parameter 'copies'"),
        ("fixture", {"kind": "inner", "params": {"group": "z3", "base": "fix-a-core"}},
         "unknown 'inner' fixture parameter 'base'"),
        ("fixture", {"kind": "normal-subgroup",
                     "params": {"group": "z2", "subgroup": ["0", "1"], "normal": True}},
         "unknown 'normal-subgroup' fixture parameter 'normal'"),
        ("transfer", {"kind": "fatten", "params": {
            "base": {"kind": "constant-diagram", "params": {"base": "fix-a-core", "cover": 2}}}},
         "unknown 'constant-diagram' fixture parameter 'cover'"),
        ("fixture", {"kind": "normal-subgroup", "params": {"group": "s3", "subgroup": "012"}},
         "'normal-subgroup' fixture parameter 'subgroup' is not a JSON array of strings"),
        ("fixture", {"kind": "normal-subgroup", "params": {"group": "z2", "subgroup": [0, 1]}},
         "'normal-subgroup' fixture parameter 'subgroup' is not a JSON array of strings"),
    ],
    ids=["fatten-copy", "cech-covers", "constant-diagram-copies", "inner-base",
         "normal-subgroup-normal", "nested-constant-diagram-cover", "subgroup-string",
         "subgroup-numbers"],
)
def test_a_spec_param_its_kind_does_not_read_exits_2(run, tmp_path, command, spec, message):
    """A spec names only the params its kind reads, and a subgroup is an
    array of element ids: a misspelt key is not ignored (a `fatten` with
    "copy" built the default 2 copies and exited 0), and a string is not
    read as its characters."""
    path = _write(tmp_path, "spec", envelope("fixture-spec", spec))
    assert run(command, path) == (2, _error_bytes(message))


@pytest.mark.parametrize("argv, made", [(("weq",), False), (("lift", "--target", "0"), False),
                                        (("transfer",), True)], ids=["weq", "lift", "transfer"])
def test_a_fattened_g1_makes_its_composition_table_only_when_read_whole(
        run, tmp_path, monkeypatch, argv, made):
    """`weq` and `lift` on a fatten spec compose in the fattening without
    its composition table; `transfer` classifies, and its gauge scan reads
    the table whole."""
    fattenings = []

    def recording(C, n):
        fat, inclusion = fatten(C, n)
        fattenings.append(fat)
        return fat, inclusion

    monkeypatch.setattr(fixtures, "fatten", recording)
    base = {"kind": "constant-diagram", "params": {"base": "inner-s3"}}
    path = _write(tmp_path, "spec", envelope(
        "fixture-spec", {"kind": "fatten", "params": {"base": base, "copies": 3}}))
    code, _ = run(argv[0], path, *argv[1:])
    assert code == 0 and len(fattenings) == 1
    assert ("table" in vars(fattenings[0].g1)) is made


def test_wrong_version_exits_2(run, tmp_path):
    bad = tmp_path / "version.json"
    bad.write_text(json.dumps({"formatVersion": "other/9", "kind": "diagram",
                               "payload": {}}), encoding="utf-8")
    code, _ = run("validate", str(bad))
    assert code == 2


def test_missing_file_exits_2(run, tmp_path):
    code, _ = run("validate", str(tmp_path / "absent.json"))
    assert code == 2


def test_desc_counts(run, fixa_doc):
    code, out = run("desc", fixa_doc)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    code, out = run("desc", fixa_doc, "--classes")
    assert code == 0
    payload = json.loads(out)
    assert payload["classCount"] == 1
    assert len(payload["classes"][0]["members"]) == 2


def test_desc_classes_bytes_on_two_classes(run, tmp_path, diag_union):
    """`desc --classes` on a diagram with two gauge classes prints exactly
    these bytes (sha256 pinned): classes in representative order, members
    and witnesses sorted."""
    path = tmp_path / "union.json"
    path.write_text(serialize_document("diagram", diag_union), encoding="utf-8")
    code, out = run("desc", str(path), "--classes")
    assert code == 0
    assert json.loads(out)["classCount"] == 2
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "8665f7884ef4457948c04013e4de4b9685dec010e3213a0908433a81d52041fb"
    )


def test_consecutive_calls_do_not_leak_flags(run, fixa_doc, fat_spec_doc):
    """One parser serves every call in a process: a flag or a usage error
    of one call does not carry over to the next, and help is unchanged."""
    code, out = run("desc", fixa_doc, "--classes")
    assert code == 0 and "classes" in json.loads(out)
    code, out = run("desc", fixa_doc)
    assert code == 0 and set(json.loads(out)) == {"count", "data"}
    code, _ = run("desc", fixa_doc, "--bound", "1")
    assert code == 3
    code, _ = run("desc", fixa_doc)
    assert code == 0
    code, out = run("transfer", fat_spec_doc, "--trace")
    assert code == 0 and "surjectivityWitnesses" in json.loads(out)
    code, out = run("transfer", fat_spec_doc)
    assert code == 0 and "surjectivityWitnesses" not in json.loads(out)
    code, _ = run("desc")
    assert code == 2
    code, out = run("--help")
    assert code == 0 and out == _build_parser.__wrapped__().format_help()
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("base, maps", [
    ({"kind": "constant-diagram", "params": {"base": "fix-a-core"}}, 1),
    (CECH_SPEC, 4),
], ids=["constant", "cech"])
def test_transfer_checks_weak_equivalence_once(run, tmp_path, monkeypatch, base, maps):
    """`transfer` checks the morphism before `verify_bijection` does; the
    levelwise check runs once, one call per distinct level map: the
    inclusion into a fattened constant diagram holds one map at all four
    levels, the inclusion into a fattened cover four."""
    calls = []
    check = transfer.is_weak_equivalence_crossed

    def counted(F):
        calls.append(F)
        return check(F)

    monkeypatch.setattr(transfer, "is_weak_equivalence_crossed", counted)
    spec = {"kind": "fatten", "params": {"base": base, "copies": 2}}
    code, _ = run("transfer", _write(tmp_path, "fat", envelope("fixture-spec", spec)))
    assert code == 0
    assert len(calls) == len({id(F) for F in calls}) == maps


@pytest.mark.hashseed
def test_a_shared_level_map_is_named_at_every_level(run, tmp_path):
    """A level map that is no weak equivalence and stands at all four levels
    is checked once and named under every level, in the bytes the check of
    each level wrote."""
    doc = _inclusion_doc("s3-a3")
    for maps in doc["payload"]["levels"]:
        _automorphism_across_copies([maps])
    path = _write(tmp_path, "shared", doc)
    _, F = parse_document(json.dumps(doc))
    assert len({id(maps) for maps in F.levels}) == 1
    detail = "induced map on pi1 at * leaves the automorphisms of *@0"
    expected = json_dumps_canonical({
        "report": {"ok": False, "violations": [
            {"detail": f"level {p}: {detail}", "rule": "pi1"} for p in range(4)]},
        "weakEquivalence": False,
    })
    for command, extra, exit_code in (
        ("weq", (), 1), ("transfer", (), 4), ("lift", ("--target", "0"), 4)
    ):
        assert run(command, path, *extra) == (exit_code, expected)


def test_bench_tracer_wraps_names_the_package_has():
    """Every (module, function) pair that the bench tracer wraps resolves in
    crossed_desc.  `CALLS` is read from bench/traced.py as a literal, without
    running the file, so a renamed or dropped import fails here instead of
    breaking every traced bench run."""
    traced = Path(__file__).resolve().parents[1] / "bench" / "traced.py"
    tree = ast.parse(traced.read_text(encoding="utf-8"))
    calls = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["CALLS"])
    sites = [site for pairs in calls.values() for site in pairs]
    assert ("transfer", "lift_gauge") in sites
    missing = [(module, name) for module, name in sites
               if not hasattr(importlib.import_module(f"crossed_desc.{module}"), name)]
    assert missing == []


def test_desc_fixture_spec_input(run, tmp_path):
    spec = tmp_path / "cech.json"
    spec.write_text(dumps_canonical(envelope(
        "fixture-spec", {"kind": "cech", "params": {"base": "fix-a-core", "cover": 2}}
    )), encoding="utf-8")
    code, out = run("desc", str(spec))
    assert code == 0
    assert json.loads(out)["count"] == 8


def test_desc_bound_exits_3(run, fixa_doc):
    code, _ = run("desc", fixa_doc, "--bound", "1")
    assert code == 3


@pytest.mark.parametrize("command, exit_code", [("validate", 2), ("weq", 2), ("fixture", 2)])
def test_bound_only_where_a_command_reads_it(run, fat_spec_doc, command, exit_code):
    """`validate`, `weq` and `fixture` read no bound, so they refuse `--bound`
    as an unknown option."""
    code, _ = run(command, fat_spec_doc, "--bound", "1")
    assert code == exit_code


def test_fixture_writes_under_the_fixed_bound(run, tmp_path):
    """The cover spec builds, but level 3's upper group has 65,536 elements,
    too many to write as a composition table."""
    code, out = run("fixture", _write(tmp_path, "cech", envelope("fixture-spec", CECH_SPEC)))
    assert code == 3
    assert json.loads(out) == {
        "error": "group of order 65536 needs 4294967296 composition entries, over the bound"
    }


def test_weq_ok(run, fat_spec_doc):
    code, out = run("weq", fat_spec_doc)
    assert code == 0
    assert json.loads(out)["weakEquivalence"] is True


def test_transfer_ok(run, fat_spec_doc):
    code, out = run("transfer", fat_spec_doc, "--trace")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["sourceClasses"] == payload["targetClasses"] == 1
    assert payload["surjectivityWitnesses"]


def test_lift(run, fat_spec_doc):
    code, out = run("lift", fat_spec_doc, "--target", "0", "--trace")
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"]["kind"] == "surjectivity"
    code, out = run(
        "lift", fat_spec_doc, "--target",
        json.dumps({"x": "*@0", "g": "1@0.0", "a": "2.1@0"}),
    )
    assert code == 0
    assert json.loads(out)["lifted"]["a"] == "2.1"


def test_lift_target_index_respects_bound(run, fat_spec_doc):
    """The enumeration behind `--target <index>` is bounded by `--bound`."""
    code, out = run("lift", fat_spec_doc, "--target", "0", "--bound", "1")
    assert code == 3
    assert json.loads(out) == {"error": "4 candidate triples exceed the bound of 1"}


def test_lift_bad_target(run, fat_spec_doc):
    code, _ = run("lift", fat_spec_doc, "--target", "99")
    assert code == 4


def test_fixture_expansion(run, tmp_path):
    spec = tmp_path / "inner.json"
    spec.write_text(dumps_canonical(envelope(
        "fixture-spec", {"kind": "inner", "params": {"group": "z3"}}
    )), encoding="utf-8")
    code, out = run("fixture", str(spec))
    assert code == 0
    kind, built = parse_document(out)
    assert kind == "crossed"
    assert len(built.g2.group("*")) == 3


def test_output_is_deterministic(run, fixa_doc):
    _, out1 = run("desc", fixa_doc, "--classes")
    _, out2 = run("desc", fixa_doc, "--classes")
    assert out1 == out2


def test_unknown_command_exits_2(run):
    code, _ = run("frobnicate", "x.json")
    assert code == 2


WRONG_KIND_DOCS = {
    "groupoid": lambda: serialize_document("groupoid", fix_a_core().g1),
    "crossed": lambda: serialize_document("crossed", fix_a_core()),
    "diagram": lambda: serialize_document("diagram", fix_a()),
    "diagram-morphism": lambda: serialize_document(
        "diagram-morphism", fatten_diagram(fix_a(), 2)[1]),
    "crossed-spec": lambda: dumps_canonical(envelope(
        "fixture-spec", {"kind": "inner", "params": {"group": "z2"}})),
    "diagram-spec": lambda: dumps_canonical(envelope(
        "fixture-spec", {"kind": "constant-diagram", "params": {"base": "fix-a-core"}})),
    "diagram-morphism-spec": lambda: dumps_canonical(envelope("fixture-spec", {
        "kind": "fatten",
        "params": {"base": {"kind": "constant-diagram", "params": {"base": "fix-a-core"}},
                   "copies": 2},
    })),
}


def _report_bytes(kind):
    return ('{\n  "kind": "%s",\n  "report": {\n    "ok": true,\n'
            '    "violations": []\n  }\n}\n' % kind)


def _error_bytes(message):
    return '{\n  "error": %s\n}\n' % json.dumps(message)


_NOT_A_DIAGRAM = "expected a diagram document, got kind {!r}"
_NOT_A_MORPHISM = "expected a diagram-morphism document, got kind {!r}"
_NOT_A_SPEC = "expected a fixture-spec document, got kind {!r}"

# (command, input, exit code, stdout: a report, an error, or the sha256 of
# an expanded document)
WRONG_KIND_CASES = [
    ("desc", "crossed", 4, _error_bytes(_NOT_A_DIAGRAM.format("crossed"))),
    ("desc", "crossed-spec", 4, _error_bytes("fixture produces a crossed, not a diagram")),
    ("desc", "groupoid", 4, _error_bytes(_NOT_A_DIAGRAM.format("groupoid"))),
    ("desc", "diagram-morphism", 4, _error_bytes(_NOT_A_DIAGRAM.format("diagram-morphism"))),
    ("desc", "diagram-morphism-spec", 4,
     _error_bytes("fixture produces a diagram-morphism, not a diagram")),
    *(
        case
        for command in ("weq", "transfer", "lift")
        for case in (
            (command, "diagram", 4, _error_bytes(_NOT_A_MORPHISM.format("diagram"))),
            (command, "diagram-spec", 4,
             _error_bytes("fixture produces a diagram, not a diagram morphism")),
            (command, "crossed", 4, _error_bytes(_NOT_A_MORPHISM.format("crossed"))),
            (command, "groupoid", 4, _error_bytes(_NOT_A_MORPHISM.format("groupoid"))),
            (command, "crossed-spec", 4,
             _error_bytes("fixture produces a crossed, not a diagram morphism")),
        )
    ),
    *(("validate", kind, 0, _report_bytes(kind))
      for kind in ("groupoid", "crossed", "diagram", "diagram-morphism")),
    *(("validate", spec, 0, _report_bytes("fixture-spec"))
      for spec in ("crossed-spec", "diagram-spec", "diagram-morphism-spec")),
    *(("fixture", kind, 4, _error_bytes(_NOT_A_SPEC.format(kind)))
      for kind in ("groupoid", "crossed", "diagram", "diagram-morphism")),
    ("fixture", "crossed-spec", 0,
     "4d7372feaa391300f0007915954941041ef6d3febde9a31e44d80b7ee3a05592"),
    ("fixture", "diagram-spec", 0,
     "af4030364f44c7574836fb3f10ce893554de1a1dafe64a15c5151add987f0d6a"),
    ("fixture", "diagram-morphism-spec", 0,
     "7c63e3a94aae9f10fed02d58f7dcd836af21d23e2dae8fd37bafd4fee299ac5b"),
]


@pytest.mark.parametrize(
    "command, kind, exit_code, expected", WRONG_KIND_CASES,
    ids=[f"{c[0]}-{c[1]}" for c in WRONG_KIND_CASES],
)
def test_document_kinds_pinned(run, tmp_path, command, kind, exit_code, expected):
    """Every command on every document kind it refuses or accepts prints
    exactly these bytes and exits with this code."""
    path = tmp_path / f"{kind}.json"
    path.write_text(WRONG_KIND_DOCS[kind](), encoding="utf-8")
    extra = ("--target", "0") if command == "lift" else ()
    code, out = run(command, str(path), *extra)
    assert code == exit_code
    if command == "fixture" and exit_code == 0:
        out = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert out == expected


@functools.cache
def _inclusion_text(base):
    """The serialized inclusion of copy 0 into the fattened constant diagram
    of `base` (two copies)."""
    return serialize_document(
        "diagram-morphism", fatten_diagram(constant_diagram(NAMED_CROSSED[base]()), 2)[1])


def _inclusion_doc(base):
    return json.loads(_inclusion_text(base))


def _target_doc(doc):
    return envelope("diagram", doc["payload"]["target"])


def test_transfer_maps_a_table_defect_like_desc(run, tmp_path):
    """A composable pair missing from a target table is a parse failure in
    `transfer` as in `desc --classes` on the target: exit 2, same bytes."""
    doc = _inclusion_doc("fix-c-core")
    doc["payload"]["target"]["levels"][1]["g1"]["compose"].remove(["1@0.0", "0@0.0", "1@0.0"])
    desc = run("desc", _write(tmp_path, "target", _target_doc(doc)), "--classes")
    assert run("transfer", _write(tmp_path, "morphism", doc)) == desc
    assert desc == (2, _error_bytes("composable pair ('1@0.0', '0@0.0') missing from table"))


def _feedback_off_the_identity(doc):
    doc["payload"]["target"]["levels"][1]["feedback"]["2.012@1"] = "021@1.1"


def _identity_across_copies(doc):
    doc["payload"]["target"]["levels"][0]["g1"]["identities"]["*@0"] = "0@0.1"


@pytest.mark.parametrize(
    "base, edit, message",
    [
        ("s3-a3", _feedback_off_the_identity,
         "identity '012@1.1' at '*@1' lies in no coset of the feedback image"),
        ("fix-c-core", _identity_across_copies,
         "identity '0@0.1' at '*@0' lies in no coset of the feedback image"),
    ],
    ids=["feedback-off-the-identity", "identity-across-copies"],
)
def test_identity_outside_every_coset_exits_4(run, tmp_path, base, edit, message):
    """A target level whose identity lies in no coset of the feedback image
    has no pi1: `weq`, `transfer` and `lift` refuse with exit 4."""
    doc = _inclusion_doc(base)
    edit(doc)
    path = _write(tmp_path, "morphism", doc)
    for command, extra in (("weq", ()), ("transfer", ()), ("lift", ("--target", "0"))):
        assert run(command, path, *extra) == (4, _error_bytes(message))


def test_validate_morphism_covers_its_diagrams(run, tmp_path):
    """`validate` on a diagram morphism reports what `validate` on its target
    reports, prefixed with "target: ", after its own sections."""
    doc = _inclusion_doc("s3-a3")
    _feedback_off_the_identity(doc)
    code, out = run("validate", _write(tmp_path, "target", _target_doc(doc)))
    assert code == 1
    target_violations = _violations(out)
    assert ("feedback-unit", "level 1: feedback(1) != 1_*@1") in target_violations
    code, out = run("validate", _write(tmp_path, "morphism", doc))
    assert code == 1
    assert _violations(out) == [
        (rule, f"target: {detail}") for rule, detail in target_violations]


def test_embedded_fixture_diagram_exits_2(run, tmp_path):
    """The source and target of a diagram morphism are explicit diagrams; a
    fixture spec in their place is not expanded."""
    doc = _inclusion_doc("fix-a-core")
    doc["payload"]["source"] = {
        "fixture": {"kind": "constant-diagram", "params": {"base": "fix-a-core"}}}
    assert run("validate", _write(tmp_path, "embedded", doc)) == (
        2, _error_bytes("diagram payload is missing 'levels'"))


def _table_ids(payload, level, table):
    """Paths (list index or dict key, then position) of every id in one g1
    compose, identities or feedback table of a level."""
    lv = payload["levels"][level]
    if table == "compose":
        return [(i, k) for i in range(len(lv["g1"]["compose"])) for k in range(3)]
    entries = lv["g1"]["identities"] if table == "identities" else lv["feedback"]
    return [(key, k) for key in sorted(entries) for k in range(2)]


def _substitute(payload, level, table, where, new_id):
    """Replace one id of a table, a key or a value, by `new_id`; a key is
    replaced only by an id that is not a key already."""
    lv = payload["levels"][level]
    if table == "compose":
        row, k = where
        lv["g1"]["compose"][row][k] = new_id
        return
    entries = lv["g1"]["identities"] if table == "identities" else lv["feedback"]
    key, k = where
    if k == 1:
        entries[key] = new_id
    elif new_id not in entries:
        entries[new_id] = entries.pop(key)


def _level_ids(payload, level):
    lv = payload["levels"][level]
    return sorted({*lv["g1"]["objects"], *(m["id"] for m in lv["g1"]["morphisms"]),
                   *(a for grp in lv["g2"].values() for a in grp["elements"])})


@st.composite
def _substitutions(draw):
    base = draw(st.sampled_from(["fix-c-core", "s3-a3", "fix-a-core"]))
    doc = _inclusion_doc(base)
    side = draw(st.sampled_from(["source", "target"]))
    payload = doc["payload"][side]
    level = draw(st.integers(0, 3))
    table = draw(st.sampled_from(["compose", "identities", "feedback"]))
    where = draw(st.sampled_from(_table_ids(payload, level, table)))
    new_id = draw(st.sampled_from(_level_ids(payload, level)))
    _substitute(payload, level, table, where, new_id)
    return doc


@pytest.mark.hashseed
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=_substitutions())
def test_single_id_substitutions_end_in_an_exit_code(tmp_path_factory, doc):
    """One id of a g1 composition, identity or feedback table of a fattened
    inclusion replaced by another id of its level: every command ends in an
    exit code from 0 to 4 with JSON on stdout, and no exception escapes."""
    tmp = tmp_path_factory.getbasetemp()
    morphism = _write(tmp, "substituted-morphism", doc)
    target = _write(tmp, "substituted-target", _target_doc(doc))
    for argv in (["validate", morphism], ["desc", target, "--classes"], ["weq", morphism],
                 ["transfer", morphism], ["lift", morphism, "--target", "0"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code in range(5), argv
        json.loads(out.getvalue())


# a fattened diagram's coface 2,3, then the level map 1 of a fattening
# inclusion, with the commands that read each
_MAP_VALUE_CASES = (
    ("diagram", ("cofaces", "2,3"), "coface",
     (("validate",), ("desc",), ("desc", "--classes"))),
    ("diagram-morphism", ("levels", 1), "level map",
     (("validate",), ("weq",), ("transfer",), ("lift", "--target", "0"))),
)


def _map_value_runs(run, tmp_path, key, value):
    """Every command of `_MAP_VALUE_CASES` on its document (of fix-c-core,
    two copies) with the first value of map `key` set to `value`, as
    (exit code, stdout), each with the map's kind and the entry's key."""
    runs = []
    for kind, (part, index), what, commands in _MAP_VALUE_CASES:
        D, inclusion = fatten_diagram(constant_diagram(fix_c_core()), 2)
        doc = json.loads(serialize_document(kind, D if kind == "diagram" else inclusion))
        table = doc["payload"][part][index][key]
        first = sorted(table)[0]
        table[first] = value
        path = _write(tmp_path, kind, doc)
        runs += [(what, first, run(command[0], path, *command[1:])) for command in commands]
    return runs


@pytest.mark.parametrize("value, json_type", [([1], "array"), ({"a": 1}, "object")])
@pytest.mark.parametrize("key", ["objects", "mor1", "mor2"])
def test_a_map_value_that_is_a_container_is_a_load_error(run, tmp_path, key, value, json_type):
    """A coface or level-map value that is a JSON array or object is no id:
    every command that loads the document exits 2 and names the map, where
    hashing the value raised TypeError."""
    for what, first, outcome in _map_value_runs(run, tmp_path, key, value):
        message = f"{what} payload {key!r} maps {first!r} to a JSON {json_type}"
        assert outcome == (2, _error_bytes(message))


# exit codes of the commands of `_MAP_VALUE_CASES`, in order, and the sha256
# of their joined stdout, as they were before container values were refused
_SCALAR_MAP_VALUES = {
    (5, "objects"): ((1, 0, 0, 1, 1, 4, 4),
                    "8d20ebdd58b7bdad395718b0a4146bbac5fe953bc2bad3af64a0c6b1717b9630"),
    (5, "mor1"): ((1, 4, 4, 1, 1, 4, 4),
                 "6aa28fc8dd1b5e6635f85f6652951c8dd536afef4c9fd428f14bb4acd459e951"),
    (5, "mor2"): ((1, 4, 4, 1, 1, 4, 4),
                 "163f095e023c016cd3c349bdd1350b3c9d3d758acaf76eeea0da48ec03cdd760"),
    (None, "objects"): ((1, 0, 0, 1, 1, 4, 4),
                       "25adeef6fd9be55d4891129cc5818c3b08ba65b4277879d1112fa2f08382842f"),
    (None, "mor1"): ((1, 4, 4, 1, 1, 4, 4),
                    "64554e0006f3b0d1789a2c37002ac798cbaf19e9f2d26600da7c0845aabcb5ea"),
    (None, "mor2"): ((1, 4, 4, 1, 1, 4, 4),
                    "b59807c95d24e584d3ac3f65abe2385b37ca277eebc2f15732f3b8457e8fe568"),
    (True, "objects"): ((1, 0, 0, 1, 1, 4, 4),
                       "29d1be0c1c23be2e0771cb1073c0c4c92b93889b066c03703167515c1540cd8f"),
    (True, "mor1"): ((1, 4, 4, 1, 1, 4, 4),
                    "919794b75266162f71cdfd0cf330763feb2e6566ba2aa7d89af6f877cf8a0756"),
    (True, "mor2"): ((1, 4, 4, 1, 1, 4, 4),
                    "71505fff6480c390764840144f2c3650e159d660e555544d05bda438facc4380"),
}


@pytest.mark.hashseed
@pytest.mark.parametrize("value, key", sorted(_SCALAR_MAP_VALUES, key=repr))
def test_a_scalar_map_value_keeps_its_output(run, tmp_path, value, key):
    """A number, null or boolean map value still loads: each command reports
    or raises as it did, with the same exit code and bytes."""
    outcomes = [outcome for _, _, outcome in _map_value_runs(run, tmp_path, key, value)]
    codes, digest = _SCALAR_MAP_VALUES[(value, key)]
    assert tuple(code for code, _ in outcomes) == codes
    assert hashlib.sha256("".join(out for _, out in outcomes).encode()).hexdigest() == digest


# -- the canonical writer and the collector pause -----------------------

_SPECIAL_CHARACTERS = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", " ", "é", "\ud800", "\udfff"]
_strings = st.text(
    st.sampled_from(_SPECIAL_CHARACTERS) | st.characters(exclude_categories=()), max_size=8)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _strings,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(_strings, inner, max_size=5)
        | st.lists(st.lists(_strings, max_size=4), max_size=4)
        | st.dictionaries(_strings, _strings, max_size=4)
    ),
    max_leaves=40,
)


@pytest.mark.hashseed
@given(_json_values)
def test_writer_matches_json_dumps(value):
    """The canonical writer gives `json.dumps`'s bytes (sorted keys, 2-space
    indent, no ASCII escaping) on any JSON value with string keys: empty and
    nested containers, tuples, string rows, escapes, control characters,
    non-ASCII characters and lone surrogates."""
    assert dumps_canonical(value) == json_dumps_canonical(value)


_scalars = st.none() | st.booleans() | st.integers() | _strings


@st.composite
def _shared_trees(draw):
    """An envelope-shaped JSON tree whose containers come from a small pool,
    so one object stands at several positions: repeated and interleaved in
    `levels` arrays and `cofaces` objects, at two depths, outside those
    keys, and inside another pool member.  Those keys also hold a pool
    member whole (a `levels` object, a `cofaces` array) or a scalar, and
    empty containers come up as pool members and as empty tables."""
    pool = []
    for container in draw(st.lists(st.dictionaries(_strings, _scalars, max_size=3)
                                   | st.lists(_scalars, max_size=3), min_size=1, max_size=3)):
        if pool and draw(st.booleans()):
            inner = draw(st.sampled_from(pool))
            if isinstance(container, dict):
                container["inner"] = inner
            else:
                container.append(inner)
        pool.append(container)
    values = [*pool, *draw(st.lists(_scalars, max_size=2))]

    def repeats():
        members = draw(st.lists(st.sampled_from(values), max_size=6))
        table = draw(st.sampled_from(["array", "object", "value"]))
        if table == "value":
            return draw(st.sampled_from(values))
        if table == "array":
            return members
        return dict(zip(["0,0", "0,1", "1,0", "1,1", "1,2", "2,0"], members))

    def diagram():
        return {"levels": repeats(), "cofaces": repeats(), "other": draw(st.sampled_from(values))}

    payload = diagram()
    payload["source"] = diagram() if draw(st.booleans()) else draw(st.sampled_from(values))
    payload["target"] = diagram()
    return {"formatVersion": "crossed-desc/1", "kind": "diagram", "payload": payload}


@pytest.mark.hashseed
@given(_shared_trees())
def test_writer_matches_json_dumps_on_shared_members(value):
    """A member of a `levels` array or `cofaces` object that repeats an
    earlier member is written once and its text repeated: the bytes stay
    `json.dumps`'s wherever the shared objects stand."""
    assert dumps_canonical(value) == json_dumps_canonical(value)


@pytest.mark.hashseed
def test_writing_distinct_equal_levels_keeps_no_text():
    """A diagram document whose four levels and nine cofaces are equal but
    distinct objects (as relabeling writes them) shares nothing, so the
    writer keeps no member's text: the peak stays at the two copies of the
    document that the final joins hold.  With shared objects, one kept text
    stands for the positions' own.  A member's text kept past its container,
    into the joins of the enclosing objects, would add to the peak."""
    shared = diagram_to_json(fatten_diagram(constant_diagram(NAMED_CROSSED["inner-s3"]()), 3)[0])
    for payload in (json.loads(json.dumps(shared)), shared):
        doc = envelope("diagram", payload)
        dumps_canonical(doc)
        tracemalloc.start()
        try:
            text = dumps_canonical(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(text) > 900_000
        assert peak < 2 * len(text) + 16 * 1024


@pytest.mark.hashseed
def test_writer_matches_json_dumps_on_every_document_kind():
    """Every document kind is written as `json.dumps` writes its envelope."""
    cases = [
        ("groupoid", fix_a_core().g1),
        ("crossed", fatten(NAMED_CROSSED["s3-a3"](), 2)[0]),
        ("diagram", fix_a()),
        ("diagram-morphism", fatten_diagram(fix_a(), 2)[1]),
        ("fixture-spec", FixtureSpec("cech", CECH_SPEC["params"])),
    ]
    assert {kind for kind, _ in cases} == set(KINDS)
    for kind, structure in cases:
        text = serialize_document(kind, structure)
        assert text == json_dumps_canonical(envelope(kind, _WRITERS[kind](structure)))


def _broken_twist_doc(tmp_path):
    doc = json.loads(serialize_document("crossed", fix_a_core()))
    doc["payload"]["twist"][-1][2] = doc["payload"]["twist"][0][2]
    return _write(tmp_path, "broken-twist", doc)


def _malformed_doc(tmp_path):
    path = tmp_path / "malformed.json"
    path.write_text("{not json", encoding="utf-8")
    return str(path)


# one input of each command and one erroring input per nonzero exit code:
# (argv, exit code), with {fixa}, {spec}, {inner}, {broken} and {malformed}
# standing for documents the test writes
_COMMAND_CASES = [
    (["validate", "{fixa}"], 0),
    (["desc", "{fixa}"], 0),
    (["desc", "{fixa}", "--classes"], 0),
    (["weq", "{spec}"], 0),
    (["transfer", "{spec}", "--trace"], 0),
    (["lift", "{spec}", "--target", "0", "--trace"], 0),
    (["fixture", "{inner}"], 0),
    (["validate", "{broken}"], 1),
    (["validate", "{malformed}"], 2),
    (["desc", "{fixa}", "--bound", "1"], 3),
    (["lift", "{spec}", "--target", "99"], 4),
]
_COMMAND_IDS = [" ".join(argv) for argv, _ in _COMMAND_CASES]


@pytest.fixture
def command_docs(tmp_path, fixa_doc, fat_spec_doc):
    inner = dumps_canonical(envelope("fixture-spec", {"kind": "inner", "params": {"group": "z3"}}))
    (tmp_path / "inner.json").write_text(inner, encoding="utf-8")
    return {
        "fixa": fixa_doc,
        "spec": fat_spec_doc,
        "inner": str(tmp_path / "inner.json"),
        "broken": _broken_twist_doc(tmp_path),
        "malformed": _malformed_doc(tmp_path),
    }


def _argv(argv, docs):
    return [arg.format(**docs) for arg in argv]


@pytest.mark.hashseed
@pytest.mark.parametrize("argv, exit_code", _COMMAND_CASES, ids=_COMMAND_IDS)
def test_every_output_shape_is_written_as_json_dumps(run, command_docs, argv, exit_code):
    """Every command's output, reports with violations and error objects
    included, is `json.dumps`'s bytes for the value it holds."""
    code, out = run(*_argv(argv, command_docs))
    assert code == exit_code
    assert out == json_dumps_canonical(json.loads(out))


@pytest.mark.hashseed
def test_semantic_error_object_is_written_as_json_dumps(run, fixa_doc, monkeypatch):
    """The error object of exit 1, which no shipped input reaches through
    `desc`, is `json.dumps`'s bytes too."""
    def fail(D, bound):
        raise CrossedDescError("completion is not a descent datum: ['é\"\\\\']")

    monkeypatch.setattr(cli, "enumerate_descent", fail)
    code, out = run("desc", fixa_doc)
    assert code == 1
    assert out == json_dumps_canonical({"error": "completion is not a descent datum: ['é\"\\\\']"})


@contextlib.contextmanager
def _collector(enabled):
    """Automatic collection switched to `enabled`, and back on exit."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.hashseed
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "argv, exit_code",
    [*_COMMAND_CASES, (["--help"], 0), (["desc", "{fixa}", "--no-such-flag"], 2)],
    ids=[*_COMMAND_IDS, "--help", "bad flag"],
)
def test_main_leaves_the_collector_as_it_found_it(run, command_docs, enabled, argv, exit_code):
    """`main` pauses automatic collection only while it runs, on every exit
    code and on argparse's own exits."""
    with _collector(enabled):
        code, _ = run(*_argv(argv, command_docs))
        assert code == exit_code
        assert gc.isenabled() is enabled


@pytest.mark.hashseed
@pytest.mark.parametrize("argv, exit_code", _COMMAND_CASES, ids=_COMMAND_IDS)
def test_commands_leave_no_cyclic_garbage(run, command_docs, argv, exit_code):
    """With automatic collection off, a command leaves nothing for the
    collector to find, so pausing collection while it runs frees the same
    memory as collecting."""
    _build_parser()
    argv = _argv(argv, command_docs)
    with _collector(False):
        gc.collect()
        code, _ = run(*argv)
        assert code == exit_code
        assert gc.collect() == 0
