import dataclasses
import itertools
import json

import pytest

from crossed_desc import (
    CrossedDescError,
    CrossedMorphism,
    DiagramMorphism,
    DescentDatum,
    DomainError,
    GaugeTransformation,
    LiftSearchError,
    apply_morphism,
    apply_morphism_gauge,
    enumerate_descent,
    fatten_diagram,
    gauge_classes,
    is_gauge,
    is_weak_equivalence_diagram,
    lift_descent,
    lift_gauge,
    revalidate_lift_trace,
    validate_diagram_morphism,
    verify_bijection,
)
from crossed_desc import transfer
from crossed_desc.crossed import _tag_map
from crossed_desc.descent import ClassTable, gauge_identity
from crossed_desc.fixtures import (
    constant_diagram,
    fix_a,
    fix_a_core,
    fix_c,
    fatten,
    fix_c_core,
    one_object_crossed,
    trivial_group,
)
from crossed_desc.serialize import parse_document, serialize_document
from crossed_desc.transfer import LiftTrace, _target_gauge_between_images

from builders import ODD_ID_BASES, _prefix_quotient, disjoint_union, point
from oracles import least_lift_choices, scanned_weak_equivalence_diagram


def trivial_diagram():
    T = one_object_crossed(
        trivial_group(), trivial_group("2.1"), {"2.1": "1"}, lambda g, a: a
    )
    return constant_diagram(T)


def collapse_morphism(D):
    T = trivial_diagram()
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
    return DiagramMorphism(D, T, levels)


def test_identity_is_weak_equivalence(id_a):
    ok, _ = is_weak_equivalence_diagram(id_a)
    assert ok


def test_collapse_is_not_weak_equivalence(diag_a):
    ok, report = is_weak_equivalence_diagram(collapse_morphism(diag_a))
    assert not ok
    assert "pi2" in report.rules()
    assert any("level 0" in v.detail for v in report)


def test_non_equivalence_report_names_every_level_and_object():
    fat, _ = fatten_diagram(fix_a(), 2)
    ok, report = is_weak_equivalence_diagram(collapse_morphism(fat))
    assert not ok
    assert [(v.rule, v.detail) for v in report] == [
        ("pi2", f"level {p}: induced map on pi2 at {x} is not injective")
        for p in range(4)
        for x in ("*@0", "*@1")
    ]


def _with_copy_one_tag_at_level_3(F):
    """F with its level-3 2-morphism map replaced by the tag view a -> a@1,
    objects still sent to copy 0."""
    G = F.levels[3]
    moved = CrossedMorphism(G.source, G.target, G.obj_map, G.mor1_map, _tag_map(G.source, "@1"))
    return DiagramMorphism(F.source, F.target, (*F.levels[:3], moved))


@pytest.mark.hashseed
@pytest.mark.parametrize("fixture", ["fat_a", "fat_s3", "fat_union", "fat_cech"])
def test_diagram_weak_equivalence_matches_the_scan_oracle(fixture, request):
    """The levelwise check of a fattening's inclusion, and of the same map
    with a wrong tag at level 3, gives the verdict and report of the pi2
    scan at every level (65,536 kernel ids at level 3 of the fattened cover)."""
    _, incl = request.getfixturevalue(fixture)
    for F, weak in ((incl, True), (_with_copy_one_tag_at_level_3(incl), False)):
        ok, report = is_weak_equivalence_diagram(F)
        want_ok, want = scanned_weak_equivalence_diagram(F)
        assert ok is want_ok is weak
        assert report.as_json() == want.as_json()


def test_apply_morphism_preserves_descent(fat_a):
    fat, incl = fat_a
    for t in enumerate_descent(incl.source):
        image = apply_morphism(incl, t)  # raises if the image fails the checks
        assert image.x.endswith("@0")


def test_apply_morphism_rejects_non_data(fat_a, fat_cech):
    from crossed_desc import DescentDatum

    _, incl_a = fat_a
    with pytest.raises(DomainError):  # ill-typed 2-cell
        apply_morphism(incl_a, DescentDatum("*", "1", "2.0|2.0"))
    _, incl_c = fat_cech
    t = enumerate_descent(incl_c.source)[0]
    parts = t.a.split("|")
    parts[0] = "2.1" if parts[0] == "2.0" else "2.0"
    with pytest.raises(DomainError):  # well-typed but fails the conditions
        apply_morphism(incl_c, DescentDatum(t.x, t.g, "|".join(parts)))


def test_apply_morphism_transports_gauges(fat_a):
    """Images of gauge-equivalent data stay equivalent, via the image gauge.

    This holds for any diagram morphism, not only weak equivalences; the
    collapse morphism exercises the degenerate case.
    """
    fat, incl = fat_a
    D = incl.source
    data = enumerate_descent(D)
    from crossed_desc import GaugeTransformation
    from crossed_desc.descent import vertex_object

    L0, L1 = D.levels[0], D.levels[1]
    for s, d in itertools.product(data, repeat=2):
        x0 = vertex_object(D, s.x, 0, 1)
        for f in L0.g1.hom(s.x, d.x):
            for c in sorted(L1.g2.group(x0).elements):
                t = GaugeTransformation(f, c)
                if not is_gauge(D, t, s, d)[0]:
                    continue
                ok, _ = is_gauge(
                    fat,
                    apply_morphism_gauge(incl, t),
                    apply_morphism(incl, s),
                    apply_morphism(incl, d),
                )
                assert ok

    collapse = collapse_morphism(D)
    for s in data:
        img = apply_morphism(collapse, s)
        assert img.x == "*"


# -- lifting ------------------------------------------------------------


@pytest.fixture(
    params=["id_a", "fat_a", "fat_cech", "fat_s3"],
    ids=["identity", "two-object", "cover", "inner-symmetric"],
)
def weq(request):
    val = request.getfixturevalue(request.param)
    return val if isinstance(val, DiagramMorphism) else val[1]


def test_lift_descent_every_target(weq):
    for target in enumerate_descent(weq.target):
        lifted, witness, trace = lift_descent(weq, target)
        ok, _ = is_gauge(weq.target, witness, target, apply_morphism(weq, lifted))
        assert ok
        report = revalidate_lift_trace(weq, trace)
        assert report.ok, [v.detail for v in report]


def test_lift_gauge_every_image_gauge(weq):
    """Every verified target gauge between images lifts to a verified source
    gauge merging the same pair."""
    src_data = enumerate_descent(weq.source)
    tgt_classes = gauge_classes(weq.target)
    src_classes = gauge_classes(weq.source)
    for s, d in itertools.product(src_data, repeat=2):
        si, di = apply_morphism(weq, s), apply_morphism(weq, d)
        if tgt_classes.rep_of[si] != tgt_classes.rep_of[di]:
            continue
        t = _target_gauge_between_images(weq, tgt_classes, s, d)
        lifted, trace = lift_gauge(weq, s, d, t)
        ok, _ = is_gauge(weq.source, lifted, s, d)
        assert ok
        assert src_classes.rep_of[s] == src_classes.rep_of[d]
        assert revalidate_lift_trace(weq, trace).ok


# Bases whose fattenings list some 2-morphism groups out of sorted order, so
# a search that walks a group in element order picks another candidate.
_UNSORTED_BASES = {
    **{name: ODD_ID_BASES[name] for name in ("prefix-kernel", "prefix-g1", "union")},
    "prefix-quotient": _prefix_quotient,
}


def _assert_lifts_choose_least(F):
    """Every choice a lift along F records equals the oracle's."""
    traces = [lift_descent(F, target)[2] for target in enumerate_descent(F.target)]
    tgt_classes = gauge_classes(F.target)
    for s, d in itertools.product(enumerate_descent(F.source), repeat=2):
        if tgt_classes.rep_of[apply_morphism(F, s)] == tgt_classes.rep_of[apply_morphism(F, d)]:
            t = _target_gauge_between_images(F, tgt_classes, s, d)
            traces.append(lift_gauge(F, s, d, t)[1])
    assert {trace.kind for trace in traces} == {"surjectivity", "injectivity"}
    for trace in traces:
        for fields, least in least_lift_choices(F, trace).items():
            assert tuple(trace.data[name] for name in fields) == least, (trace.as_json(), fields)


@pytest.mark.hashseed
@pytest.mark.parametrize("base", sorted(_UNSORTED_BASES))
def test_lifts_choose_the_least_candidate_of_each_step(base):
    """Every choice a lift records is the least solution of its step's
    equation, as the oracle walks sorted candidates over the raw tables: for
    every target datum, (x, f), (g, c') and a; for every gauge between
    images, (e, v), d' and v2."""
    _, F = fatten_diagram(constant_diagram(_UNSORTED_BASES[base]()), 2)
    assert any(list(grp.elements) != sorted(grp.elements)
               for D in (F.source, F.target) for L in D.levels[:3]
               for grp in map(L.g2.group, L.objects))
    _assert_lifts_choose_least(F)


@pytest.mark.hashseed
def test_lift_step_one_walks_source_objects_in_sorted_order():
    """A source whose level 0 lists isomorphic objects against sorted order
    (a@0, a@1, a0@0, a0@1): the (x, f) of every surjectivity lift is the
    least, as are all other choices."""
    doc = serialize_document("crossed", fatten(fix_c_core(), 2)[0])
    for old, new in (("*@0", "a"), ("*@1", "a0")):
        doc = doc.replace(json.dumps(old), json.dumps(new))
    fat = fatten_diagram(constant_diagram(parse_document(doc)[1]), 2)[0]
    _, F = fatten_diagram(fat, 2)
    assert F.source.levels[0].objects == ("a@0", "a@1", "a0@0", "a0@1")
    _assert_lifts_choose_least(F)


def test_lift_search_is_exhausted_off_a_weak_equivalence():
    """The map trivial -> fix-a sending 2.1 to 2.0 is a diagram morphism but
    not surjective on pi2, so no source 2-cell maps onto the target's 2.1."""
    T, A = trivial_diagram(), fix_a()
    F = DiagramMorphism(T, A, tuple(
        CrossedMorphism(T.levels[p], A.levels[p], {"*": "*"}, {"1": "1"}, {"2.1": "2.0"})
        for p in range(4)))
    assert validate_diagram_morphism(F).ok
    assert not is_weak_equivalence_diagram(F)[0]
    with pytest.raises(LiftSearchError) as exc:
        lift_descent(F, DescentDatum("*", "1", "2.1"))
    assert exc.value.step == "fiber-bijectivity"


def test_component_search_is_exhausted_off_a_weak_equivalence():
    """fix-a into the fix-a-core component of fix-a-core + fix-c-core is a
    diagram morphism but not surjective on pi0, so no source object hits the
    component of the fix-c-core object."""
    A = fix_a()
    U = constant_diagram(disjoint_union(fix_a_core(), fix_c_core()))
    F = DiagramMorphism(A, U, tuple(
        CrossedMorphism(L, M, {x: f"{x}:0" for x in L.objects},
                        {m: f"{m}:0" for m in L.g1.source}, {a: f"{a}:0" for a in L.g2.owner})
        for L, M in zip(A.levels, U.levels)))
    assert validate_diagram_morphism(F).ok
    assert not is_weak_equivalence_diagram(F)[0]
    target = next(t for t in enumerate_descent(U) if t.x == "*:1")
    with pytest.raises(LiftSearchError) as exc:
        lift_descent(F, target)
    assert exc.value.step == "component-surjectivity"
    assert str(exc.value) == (
        "search exhausted at step 'component-surjectivity': "
        "no source object hits the component of *:1"
    )


def test_gauge_hom_search_is_exhausted_off_a_weak_equivalence():
    """Collapsing two points onto one is a diagram morphism but not injective
    on pi0: the identity gauge between the equal images has no source
    1-morphism between the two objects to lift to."""
    F = collapse_morphism(constant_diagram(disjoint_union(point(), point())))
    assert validate_diagram_morphism(F).ok
    assert not is_weak_equivalence_diagram(F)[0]
    src, dst = DescentDatum("*:0", "1:0", "2.1:0"), DescentDatum("*:1", "1:1", "2.1:1")
    with pytest.raises(LiftSearchError) as exc:
        lift_gauge(F, src, dst, GaugeTransformation("1", "2.1"))
    assert exc.value.step == "hom-quotient-surjectivity"
    assert str(exc.value) == (
        "search exhausted at step 'hom-quotient-surjectivity': "
        "no (e, v) with F(e) = f . D(v)"
    )


# the diagram, level and kind of each field a trace records
_TRACE_FIELDS = {
    "surjectivity": {
        "target": ("H", 2, "datum"), "x": ("G", 0, "obj"), "f": ("H", 0, "mor1"),
        "y_prime": ("H", 0, "obj"), "h_pp": ("H", 1, "mor1"), "c_pp": ("H", 1, "mor2"),
        "b_pp": ("H", 2, "mor2"), "g": ("G", 1, "mor1"), "c_p": ("H", 1, "mor2"),
        "h_p": ("H", 1, "mor1"), "b_p": ("H", 2, "mor2"), "a": ("G", 2, "mor2"),
        "u": ("G", 3, "mor2"), "c": ("H", 1, "mor2"), "lifted": ("G", 2, "datum"),
        "witness": ("H", 1, "gauge"),
    },
    "injectivity": {
        "src": ("G", 2, "datum"), "dst": ("G", 2, "datum"), "input": ("H", 1, "gauge"),
        "e": ("G", 0, "mor1"), "v": ("H", 0, "mor2"), "f_tilde": ("H", 0, "mor1"),
        "c_tilde": ("H", 1, "mor2"), "d_p": ("G", 1, "mor2"), "w": ("H", 1, "mor2"),
        "v2": ("G", 1, "mor2"), "d": ("G", 1, "mor2"), "u": ("G", 2, "mor2"),
        "lifted": ("G", 1, "gauge"),
    },
}


def _stand_ins(D, p, kind, value):
    """Values typed as `value` is, in level p of D: the other descent data at
    its object, its gauge with another 2-component, the other objects, the
    other 1-morphisms with its ends, or the other elements of its group."""
    L = D.levels[p]
    if kind == "datum":
        return [t for t in enumerate_descent(D) if t.x == value.x and t != value]
    if kind == "gauge":
        return [dataclasses.replace(value, c=c) for c in _stand_ins(D, p, "mor2", value.c)]
    if kind == "obj":
        return [x for x in L.objects if x != value]
    if kind == "mor1":
        return [m for m in L.g1.hom(L.g1.src(value), L.g1.dst(value)) if m != value]
    return [b for b in L.g2.group(L.g2.object_of(value)) if b != value]


def test_a_trace_with_any_field_replaced_does_not_revalidate():
    """Every field of a lift trace is tied to what determines it: replaced by
    any value of its type, the trace no longer re-validates.  The source is
    a fattening, so the lift's object has a stand-in too."""
    _, F = fatten_diagram(fatten_diagram(fix_c(), 2)[0], 2)
    _, _, surjectivity = lift_descent(F, DescentDatum("*@1@1", "1@1.1@1.1", "2.1@1@1"))
    tgt_classes = gauge_classes(F.target)
    pair = DescentDatum("*@0", "0@0.0", "2.0@0"), DescentDatum("*@0", "1@0.0", "2.1@0")
    t = _target_gauge_between_images(F, tgt_classes, *pair)
    _, injectivity = lift_gauge(F, *pair, t)
    for trace in (surjectivity, injectivity):
        assert revalidate_lift_trace(F, trace).ok
        assert sorted(trace.data) == sorted(_TRACE_FIELDS[trace.kind])
        for key, (side, p, kind) in _TRACE_FIELDS[trace.kind].items():
            stand_ins = _stand_ins(F.source if side == "G" else F.target, p, kind, trace.data[key])
            assert stand_ins, key
            for value in stand_ins:
                corrupted = LiftTrace(trace.kind, {**trace.data, key: value})
                assert not revalidate_lift_trace(F, corrupted).ok, (trace.kind, key, value)


def test_lift_gauge_rejects_non_gauge(fat_a):
    fat, incl = fat_a
    from crossed_desc import GaugeTransformation

    data = enumerate_descent(incl.source)
    s, d = data[0], data[1]  # differ in the 2-cell only
    # the identity pair fixes the 2-cell, so it cannot relate s to d
    with pytest.raises(DomainError):
        lift_gauge(incl, s, d, GaugeTransformation("1@0.0", "2.0@0"))


# -- the bijection, both routes -----------------------------------------


def test_identity_class_map_is_identity(id_a):
    report = verify_bijection(id_a)
    assert all(s == t for s, t in report.class_map.items())
    assert report.agree and report.oracle_bijective


def test_verify_bijection_all_fixture_weqs(weq):
    report = verify_bijection(weq)
    assert report.oracle_bijective
    assert report.constructive_bijective
    assert len(report.source_classes.reps) == len(report.target_classes.reps)
    assert len(report.surjectivity) == len(report.target_classes.reps)
    for _, _, trace in report.surjectivity.values():
        assert revalidate_lift_trace(weq, trace).ok


def test_verify_bijection_maps_two_classes_onto_two(fat_union):
    """The first fixture with more than one gauge class: both routes must see
    the fattening map the two classes of fix-a-core + fix-c-core onto two."""
    _, incl = fat_union
    report = verify_bijection(incl)
    assert len(report.source_classes.reps) == len(report.target_classes.reps) == 2
    assert report.oracle_bijective and report.constructive_bijective
    assert sorted(report.class_map.values()) == report.target_classes.reps
    assert sorted(report.surjectivity) == report.target_classes.reps
    assert report.injectivity == {}


@pytest.fixture
def split_source_classes(monkeypatch):
    """The inclusion of the fattening of fix-c-core, with `gauge_classes`
    patched to put each of the source's two data in a class of its own;
    returns (inclusion, list of lift_gauge calls)."""
    _, incl = fatten_diagram(constant_diagram(fix_c_core()), 2)
    data = enumerate_descent(incl.source)
    assert len(data) == 2
    split = ClassTable(data, {t: t for t in data},
                       {t: gauge_identity(incl.source, t) for t in data})
    classify = transfer.gauge_classes
    monkeypatch.setattr(transfer, "gauge_classes",
                        lambda D, bound: split if D is incl.source else classify(D, bound))
    calls = []
    lift = transfer.lift_gauge

    def counted(*args):
        calls.append(args)
        return lift(*args)

    monkeypatch.setattr(transfer, "lift_gauge", counted)
    return incl, calls


def test_constructive_injectivity_merges_a_split_class(split_source_classes):
    """With the source's one class split in two, both map onto the target's
    one class: the oracle sees a non-injective map, while the constructive
    route lifts the one image collision and merges them, so the routes
    disagree after exactly one lift_gauge call."""
    incl, calls = split_source_classes
    with pytest.raises(CrossedDescError) as exc:
        verify_bijection(incl)
    assert str(exc.value) == "bijection routes disagree: oracle=False, constructive=True"
    assert len(calls) == 1


def test_constructive_injectivity_fails_when_a_gauge_does_not_lift(split_source_classes, monkeypatch):
    """The same split classes with every gauge lift failing: both routes say
    not bijective, and no injectivity witness is kept."""
    incl, _ = split_source_classes

    def exhausted(*args):
        raise LiftSearchError("cokernel-injectivity")

    monkeypatch.setattr(transfer, "lift_gauge", exhausted)
    report = verify_bijection(incl)
    assert not report.oracle_bijective and not report.constructive_bijective
    assert report.agree
    assert report.injectivity == {}


def test_verify_bijection_rejects_non_weq(diag_a):
    with pytest.raises(DomainError):
        verify_bijection(collapse_morphism(diag_a))


def test_bijection_report_json(id_a):
    out = verify_bijection(id_a).as_json(include_traces=True)
    assert out["agree"] is True
    assert out["sourceClasses"] == out["targetClasses"] == 1
    assert out["surjectivityWitnesses"]
