"""Acceptance suite: one test per criterion, each ending in a single
pass/fail line (the test's own verdict).  Everything here re-derives its
expected values from the independent oracles in oracles.py or from counts
frozen after hand computation."""

import itertools
import json
import time

import pytest

from crossed_desc import (
    CrossedGroupoid,
    CrossedMorphism,
    DescentDatum,
    DiagramMorphism,
    GaugeTransformation,
    PartialDescentDatum,
    complete_descent,
    enumerate_descent,
    gauge_classes,
    gauge_compose,
    gauge_identity,
    gauge_invert,
    is_gauge,
    lift_descent,
    lift_gauge,
    revalidate_lift_trace,
    validate_crossed,
    verify_bijection,
)
from crossed_desc.cli import main
from crossed_desc.descent import _predicted_g, vertex_object
from crossed_desc.fixtures import (
    NAMED_CROSSED,
    constant_diagram,
    fatten,
    fix_a_core,
    one_object_crossed,
    trivial_group,
)
from crossed_desc.groupoid import FiniteGroupoid
from crossed_desc.serialize import serialize_document
from crossed_desc.transfer import apply_morphism, is_weak_equivalence_diagram

from oracles import brute_descent_data, brute_gauge_classes, cech_two_cocycle_count


def _verdict(n, detail):
    print(f"[criterion {n}] PASS — {detail}")


# -- criterion 1: axiom suites ------------------------------------------


def _families(diag_cech):
    return {
        "crossed-group": fix_a_core(),
        "lower-only": NAMED_CROSSED["fix-b-core"](),
        "normal-subgroup": NAMED_CROSSED["s3-a3"](),
        "inner": NAMED_CROSSED["inner-z3"](),
        "fattened": fatten(NAMED_CROSSED["fix-c-core"](), 2)[0],
        "cover-product": diag_cech.levels[1],
    }


def _corruptions(C):
    """Single-entry corruptions of one crossed groupoid, shape-preserving."""
    out = []

    def with_twist(key, value, label):
        t = dict(C.twist_table)
        if t[key] == value:
            return
        t[key] = value
        out.append((label, CrossedGroupoid(C.g1, C.g2, t, dict(C.feedback_table))))

    def with_feedback(key, value, label):
        f = dict(C.feedback_table)
        if f[key] == value:
            return
        f[key] = value
        out.append((label, CrossedGroupoid(C.g1, C.g2, dict(C.twist_table), f)))

    def with_g1(table=None, inverses=None, identities=None, label=""):
        g1 = FiniteGroupoid(
            C.g1.objects,
            C.g1.source,
            C.g1.target,
            identities or C.g1.identities,
            table or C.g1.table,
            inverses or C.g1.inverses,
        )
        out.append((label, CrossedGroupoid(g1, C.g2, dict(C.twist_table), dict(C.feedback_table))))

    morphs = C.g1.morphisms
    keys = sorted(C.twist_table)
    # twist: send one entry to a different element of the same group
    for key in (keys[0], keys[-1]):
        grp = C.g2.group(C.g1.dst(key[0]))
        alt = next((e for e in sorted(grp.elements) if e != C.twist_table[key]), None)
        if alt is not None:
            with_twist(key, alt, f"twist{key}")
    # feedback: redirect one 2-cell to a different endomorphism
    for a in (sorted(C.feedback_table)[0], sorted(C.feedback_table)[-1]):
        x = C.g2.object_of(a)
        alt = next(
            (m for m in morphs if C.g1.src(m) == x == C.g1.dst(m)
             and m != C.feedback_table[a]),
            None,
        )
        if alt is not None:
            with_feedback(a, alt, f"feedback[{a}]")
    # g1 composition and inverses
    if len(morphs) > 1:
        (h, g), r = next(iter(sorted(C.g1.table.items())))
        alt = next(m for m in morphs
                   if m != r and C.g1.src(m) == C.g1.src(g) and C.g1.dst(m) == C.g1.dst(h))
        table = dict(C.g1.table)
        table[(h, g)] = alt
        with_g1(table=table, label=f"compose({h},{g})")
        for m0 in morphs:
            inv = dict(C.g1.inverses)
            alt = next(
                (m for m in morphs if m != inv[m0]
                 and C.g1.src(m) == C.g1.dst(m0) and C.g1.dst(m) == C.g1.src(m0)),
                None,
            )
            if alt is not None:
                inv[m0] = alt
                with_g1(inverses=inv, label=f"inverse[{m0}]")
                break
    return out


def test_criterion_1_axiom_suites(diag_cech):
    families = _families(diag_cech)
    for name, C in families.items():
        start = time.monotonic()
        report = validate_crossed(C)
        elapsed = time.monotonic() - start
        assert report.ok, (name, [v.detail for v in report])
        assert elapsed < 1.0, (name, elapsed)
    corruptions = []
    for name, C in families.items():
        for label, broken in _corruptions(C):
            corruptions.append((name, label, broken))
    assert len(corruptions) >= 10
    for name, label, broken in corruptions:
        start = time.monotonic()
        report = validate_crossed(broken)
        elapsed = time.monotonic() - start
        assert not report.ok, (name, label)
        assert report.rules(), (name, label)  # names the violated axiom
        assert elapsed < 1.0, (name, label, elapsed)
    _verdict(1, f"{len(families)} families accepted, "
                f"{len(corruptions)} corruptions rejected with named axioms")


# -- criterion 2: the gauge relation is an equivalence relation ----------


def _scan_gauges(D, src, dst):
    L0, L1 = D.levels[0], D.levels[1]
    x0 = vertex_object(D, src.x, 0, 1)
    found = []
    for f in L0.g1.hom(src.x, dst.x):
        for c in sorted(L1.g2.group(x0).elements):
            t = GaugeTransformation(f, c)
            if is_gauge(D, t, src, dst)[0]:
                found.append(t)
    return found


def test_criterion_2_equivalence_relation(diag_a, diag_b, diag_c, diag_cech, fat_a):
    start = time.monotonic()
    checked = 0
    for D in (diag_a, diag_b, diag_c, diag_cech, fat_a[0]):
        data = enumerate_descent(D)
        related = {}
        for s, d in itertools.product(data, repeat=2):
            related[(s, d)] = _scan_gauges(D, s, d)
        # reflexive, with the canonical identity pair verified
        for s in data:
            assert is_gauge(D, gauge_identity(D, s), s, s)[0]
            assert related[(s, s)]
        # symmetric and transitive via the generated operations, all verified
        for (s, d), gauges in related.items():
            for t in gauges:
                assert is_gauge(D, gauge_invert(D, t), d, s)[0]
                checked += 1
        for s, d, e in itertools.product(data, repeat=3):
            for t1 in related[(s, d)]:
                for t2 in related[(d, e)]:
                    assert is_gauge(D, gauge_compose(D, t2, t1), s, e)[0]
                    checked += 1
        # the pair-scan partition equals the closure partition
        table = gauge_classes(D)
        scan_blocks = sorted(
            sorted((m.x, m.g, m.a) for m in data if related[(rep, m)])
            for rep in table.reps
        )
        lib_blocks = sorted(
            sorted((m.x, m.g, m.a) for m in table.class_members(rep))
            for rep in table.reps
        )
        assert scan_blocks == lib_blocks
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, elapsed
    _verdict(2, f"{checked} composites/inverses verified in {elapsed:.2f}s")


# -- criterion 3: completion exists uniquely -----------------------------


def _completion_triples(D):
    L0, L1 = D.levels[0], D.levels[1]
    for src in enumerate_descent(D):
        x0 = vertex_object(D, src.x, 0, 1)
        for f in sorted(L0.g1.source):
            if L0.g1.src(f) != src.x:
                continue
            for c in sorted(L1.g2.group(x0).elements):
                t = GaugeTransformation(f, c)
                yield src, PartialDescentDatum(L0.g1.dst(f), _predicted_g(D, src.g, t)), t


def test_criterion_3_completion(diag_a, diag_cech):
    for D, name in ((diag_a, "two-element"), (diag_cech, "cover")):
        count = 0
        for src, partial, t in _completion_triples(D):
            a_prime, dst = complete_descent(D, src, partial, t)
            x0_2 = vertex_object(D, partial.x, 0, 2)
            valid = [
                b
                for b in sorted(D.levels[2].g2.group(x0_2).elements)
                if is_gauge(D, t, src, DescentDatum(partial.x, partial.g, b))[0]
            ]
            assert valid == [a_prime], (name, src, t)
            count += 1
        # exhaustive over every enumerable triple (the spaces are this small)
        assert count == {"two-element": 4, "cover": 128}[name]
    _verdict(3, "completion unique over all 132 triples, exhaustively")


# -- criterion 4: derived cardinalities ----------------------------------


def test_criterion_4_cardinalities(diag_a, diag_b, diag_cech, fat_a):
    cases = [
        ("two-element", diag_a, 2, 1),
        ("one-element", diag_b, 1, 1),
        ("two-object", fat_a[0], 4, 1),
        ("cover", diag_cech, 8, 1),
    ]
    for name, D, n_data, n_classes in cases:
        data = enumerate_descent(D)
        oracle = brute_descent_data(D)
        assert [(t.x, t.g, t.a) for t in data] == oracle, name
        assert len(data) == n_data, name
        table = gauge_classes(D)
        assert len(table.reps) == n_classes, name
        assert len(brute_gauge_classes(D, oracle)) == n_classes, name
    cocycles, coboundaries = cech_two_cocycle_count(2)
    assert cocycles == 2 ** 4 // 2 == 8  # matches |Desc| of the cover diagram
    assert cocycles // coboundaries == 1  # matches its single gauge class
    _verdict(4, "2/1, 1/1, 4/1, 8/1 — all equal to the brute-force oracle")


# -- criteria 5-7: the induced bijection on classes ----------------------


@pytest.fixture
def all_weqs(diag_a, diag_b, diag_c, diag_cech, diag_s3, fat_a, fat_cech, fat_s3):
    from crossed_desc import identity_diagram_morphism

    return {
        "id-two-element": identity_diagram_morphism(diag_a),
        "id-one-element": identity_diagram_morphism(diag_b),
        "id-feedback-iso": identity_diagram_morphism(diag_c),
        "id-cover": identity_diagram_morphism(diag_cech),
        "id-inner-symmetric": identity_diagram_morphism(diag_s3),
        "incl-two-element": fat_a[1],
        "incl-cover": fat_cech[1],
        "incl-inner-symmetric": fat_s3[1],
    }


def test_criterion_5_oracle_route(all_weqs):
    start = time.monotonic()
    for name, F in all_weqs.items():
        src_classes = gauge_classes(F.source)
        tgt_classes = gauge_classes(F.target)
        assert len(src_classes.reps) == len(tgt_classes.reps), name
        image_reps = {
            r: tgt_classes.rep_of[apply_morphism(F, r)] for r in src_classes.reps
        }
        assert len(set(image_reps.values())) == len(src_classes.reps), name
        assert set(image_reps.values()) == set(tgt_classes.reps), name
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, elapsed
    _verdict(5, f"class counts and induced maps bijective for "
                f"{len(all_weqs)} weak equivalences in {elapsed:.1f}s")


def test_criterion_6_constructive_route(all_weqs):
    lifts = gauge_lifts = 0
    for name, F in all_weqs.items():
        H = F.target
        for target in enumerate_descent(H):
            lifted, witness, trace = lift_descent(F, target)
            ok, _ = is_gauge(H, witness, target, apply_morphism(F, lifted))
            assert ok, name
            assert revalidate_lift_trace(F, trace).ok, name
            lifts += 1
        src_data = enumerate_descent(F.source)
        L0, L1 = H.levels[0], H.levels[1]
        for s, d in itertools.product(src_data, repeat=2):
            si, di = apply_morphism(F, s), apply_morphism(F, d)
            y0 = vertex_object(H, si.x, 0, 1)
            for f in L0.g1.hom(si.x, di.x):
                for c in sorted(L1.g2.group(y0).elements):
                    t = GaugeTransformation(f, c)
                    if not is_gauge(H, t, si, di)[0]:
                        continue
                    lifted_t, trace = lift_gauge(F, s, d, t)
                    ok, _ = is_gauge(F.source, lifted_t, s, d)
                    assert ok, name
                    gauge_lifts += 1
    _verdict(6, f"{lifts} descent lifts and {gauge_lifts} gauge lifts, "
                "zero search exhaustions")


def test_criterion_7_route_agreement(all_weqs):
    for name, F in all_weqs.items():
        report = verify_bijection(F)  # raises on disagreement
        assert report.agree, name
        assert report.oracle_bijective and report.constructive_bijective, name
    _verdict(7, f"oracle and constructive routes agree on all {len(all_weqs)} cases")


# -- criterion 8: negative control ---------------------------------------


def _collapse_document(D):
    T = constant_diagram(
        one_object_crossed(trivial_group(), trivial_group("2.1"),
                           {"2.1": "1"}, lambda g, a: a)
    )
    levels = tuple(
        CrossedMorphism(
            D.levels[p],
            T.levels[p],
            {x: "*" for x in D.levels[p].objects},
            {m: "1" for m in D.levels[p].g1.source},
            {a: "2.1" for a in D.levels[p].g2.owner},
        )
        for p in range(4)
    )
    return serialize_document("diagram-morphism", DiagramMorphism(D, T, levels))


def test_criterion_8_negative_control(diag_a, tmp_path, capsys):
    path = tmp_path / "collapse.json"
    path.write_text(_collapse_document(diag_a), encoding="utf-8")

    code = main(["weq", str(path)])
    out = capsys.readouterr().out
    assert code != 0
    payload = json.loads(out)
    assert payload["weakEquivalence"] is False
    assert any(v["rule"] == "pi2" for v in payload["report"]["violations"])
    assert any("level 0" in v["detail"] for v in payload["report"]["violations"])

    code = main(["transfer", str(path)])
    capsys.readouterr()
    assert code == 4
    _verdict(8, "collapse morphism: weq exit nonzero citing pi2 at level 0, "
                "transfer refused with exit 4")
