import hashlib
import json
from pathlib import Path

import pytest

from crossed_desc import transfer
from crossed_desc.cli import _build_parser, main
from crossed_desc.fixtures import (
    NAMED_CROSSED,
    constant_diagram,
    fatten,
    fatten_diagram,
    fix_a,
    fix_a_core,
    fix_b_core,
    fix_c_core,
)
from crossed_desc.serialize import (
    envelope,
    dumps_canonical,
    parse_document,
    serialize_document,
)


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
    ],
    ids=["morphism-without-id", "coface-key-5-0", "compose-row-of-4",
         "twist-key-unknown-2-morphism", "twist-value-unknown-2-morphism",
         "target-missing-keys", "target-not-an-object", "fatten-copies-not-int",
         "fatten-without-base", "cech-cover-list", "subgroup-not-a-list",
         "nested-inner-without-group", "nested-params-list"],
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


def test_transfer_checks_weak_equivalence_once(run, fat_spec_doc, monkeypatch):
    """`transfer` checks the morphism before `verify_bijection` does; the
    levelwise check runs once, one call per level."""
    calls = []
    check = transfer.is_weak_equivalence_crossed

    def counted(F):
        calls.append(F)
        return check(F)

    monkeypatch.setattr(transfer, "is_weak_equivalence_crossed", counted)
    code, _ = run("transfer", fat_spec_doc)
    assert code == 0
    assert len(calls) == 4


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
