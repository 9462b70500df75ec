import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from crossed_desc import (
    CrossedDescError,
    CrossedDiagram,
    CrossedGroupoid,
    CrossedMorphism,
    DescentDatum,
    DomainError,
    FiniteGroupoid,
    GaugeTransformation,
    PartialDescentDatum,
    ResourceBoundError,
    complete_descent,
    constant_diagram,
    enumerate_descent,
    fatten_diagram,
    gauge_classes,
    gauge_compose,
    gauge_identity,
    gauge_invert,
    is_descent_datum,
    is_gauge,
)
from crossed_desc import descent
from crossed_desc.crossed import DisconnectedGroupoid, FiniteGroup
from crossed_desc.descent import vertex_object
from crossed_desc.fixtures import NAMED_CROSSED, cech_diagram

from builders import with_coface_entry
from oracles import (
    bfs_gauge_classes,
    brute_descent_data,
    checked_descent_data,
    brute_gauge_classes,
    brute_gauge_related,
    scan_gauge_classes,
)


def test_counts_match_oracle(diag_a, diag_b, diag_c, diag_cech):
    for D, expected in ((diag_a, 2), (diag_b, 1), (diag_c, 2), (diag_cech, 8)):
        data = enumerate_descent(D)
        oracle = brute_descent_data(D)
        assert [(t.x, t.g, t.a) for t in data] == oracle
        assert len(data) == expected


def test_fattened_counts_match_oracle(fat_a):
    fat, _ = fat_a
    data = enumerate_descent(fat)
    assert [(t.x, t.g, t.a) for t in data] == brute_descent_data(fat)
    assert len(data) == 4


def test_constant_diagram_data_are_feedback_pairs(diag_s3, diag_c):
    """On a constant diagram the conditions degenerate: g must be D(a)."""
    for D in (diag_s3, diag_c):
        C = D.levels[0]
        expected = sorted(
            DescentDatum(x, C.feedback(a), a)
            for x in C.objects
            for a in C.g2.group(x)
        )
        assert enumerate_descent(D) == expected
    assert len(enumerate_descent(diag_s3)) == 6


def test_enumeration_bound(diag_a):
    with pytest.raises(ResourceBoundError):
        enumerate_descent(diag_a, bound=1)


def test_ill_typed_datum_raises(diag_a):
    with pytest.raises(DomainError):
        is_descent_datum(diag_a, DescentDatum("ghost", "1", "2.0"))
    with pytest.raises(DomainError):
        is_descent_datum(diag_a, DescentDatum("*", "2.0", "2.0"))  # not a 1-morphism


def test_failed_conditions_reported(diag_c):
    # (x, g, a) with g != D(a) breaks the first condition on a constant diagram
    ok, report = is_descent_datum(diag_c, DescentDatum("*", "1", "2.0"))
    assert not ok
    assert "cocycle-failure" in report.rules()


def test_twisted_cocycle_violation_reported(diag_cech):
    # flip one component of a valid datum's 2-cell: condition (ii) must break
    t = enumerate_descent(diag_cech)[0]
    parts = t.a.split("|")
    parts[0] = "2.1" if parts[0] == "2.0" else "2.0"
    bad = DescentDatum(t.x, t.g, "|".join(parts))
    ok, report = is_descent_datum(diag_cech, bad)
    assert not ok
    assert "twisted-2-cocycle" in report.rules()


# -- the gauge relation -------------------------------------------------


def _all_gauges(D, src, dst):
    L0, L1 = D.levels[0], D.levels[1]
    x0 = vertex_object(D, src.x, 0, 1)
    for f in L0.g1.hom(src.x, dst.x):
        for c in sorted(L1.g2.group(x0).elements):
            t = GaugeTransformation(f, c)
            ok, _ = is_gauge(D, t, src, dst)
            if ok:
                yield t


def test_gauge_relation_matches_oracle(diag_a, diag_b, diag_c, fat_a):
    fat, _ = fat_a
    for D in (diag_a, diag_b, diag_c, fat):
        data = enumerate_descent(D)
        for s, d in itertools.product(data, repeat=2):
            lib = any(True for _ in _all_gauges(D, s, d))
            assert lib == brute_gauge_related(
                D, (s.x, s.g, s.a), (d.x, d.g, d.a)
            ), (s, d)


def test_classes_match_oracle(diag_a, diag_b, diag_cech, fat_a, diag_union):
    fat, _ = fat_a
    for D, n_classes in ((diag_a, 1), (diag_b, 1), (diag_cech, 1), (fat, 1), (diag_union, 2)):
        table = gauge_classes(D)
        oracle = brute_gauge_classes(D)
        assert len(table.reps) == len(oracle) == n_classes
        lib_blocks = sorted(
            [sorted((m.x, m.g, m.a) for m in table.class_members(rep))
             for rep in table.reps]
        )
        assert lib_blocks == oracle


# -- classes are orbits: the scan against the breadth-first oracle -------


def _table(table):
    """Everything a ClassTable holds, insertion order included."""
    return table.members, list(table.rep_of.items()), list(table.witnesses.items())


LADDER = [(name, n) for name in sorted(NAMED_CROSSED) for n in (1, 2, 3)]


@pytest.mark.parametrize("name, n", LADDER, ids=[f"{b}-n{n}" for b, n in LADDER])
def test_orbit_scan_matches_bfs_oracle_on_the_ladder(name, n):
    D, _ = fatten_diagram(constant_diagram(NAMED_CROSSED[name]()), n)
    assert _table(gauge_classes(D)) == _table(bfs_gauge_classes(D))


def test_orbit_scan_matches_bfs_oracle(diag_cech, diag_union, fat_union):
    for D in (diag_cech, diag_union, fat_union[0]):
        assert _table(gauge_classes(D)) == _table(bfs_gauge_classes(D))


def test_scan_from_every_member_checks_closure(monkeypatch, diag_c):
    """The candidates of a member that is not a representative are scanned
    too: an image there that is not a descent datum is an error."""
    members = enumerate_descent(diag_c)
    last = members[-1]
    assert gauge_classes(diag_c).rep_of[last] != last
    gauge_images = descent._gauge_images
    grp = diag_c.levels[2].g2

    def images_off_the_data(scan, src):
        for t, (x, g, a) in gauge_images(scan, src):
            if src == last:
                a = next(b for b in grp.group(grp.object_of(a)) if b != a)
            yield t, (x, g, a)

    monkeypatch.setattr(descent, "_gauge_images", images_off_the_data)
    with pytest.raises(
        CrossedDescError, match=rf"gauge image .* of {re.escape(str(last))} is not a descent datum"
    ):
        gauge_classes(diag_c)


def test_scan_rejects_an_image_outside_the_class(monkeypatch, diag_a):
    """When the least datum's gauges are patched to fix it, the other datum
    starts a class of its own, and its gauge back to the least datum leaves
    that class.  The scan names it; the breadth-first search merged the two
    classes without a word."""
    least, other = enumerate_descent(diag_a)
    gauge_images = descent._gauge_images

    def images_fixing_the_least(scan, src):
        for t, (x, g, a) in gauge_images(scan, src):
            yield t, (x, g, src.a if src == least else a)

    monkeypatch.setattr(descent, "_gauge_images", images_fixing_the_least)
    with pytest.raises(
        CrossedDescError,
        match=rf"gauge image {re.escape(str(least))} of {re.escape(str(other))} "
              rf"lies outside the class of {re.escape(str(other))}",
    ):
        gauge_classes(diag_a)
    assert len(bfs_gauge_classes(diag_a).reps) == 1


def test_scan_visits_every_candidate_and_verifies_every_witness(monkeypatch, fat_union):
    """Every (f, c) out of every member is scanned, in order, and every
    member's witness goes through is_gauge once."""
    D = fat_union[0]
    L0, L1 = D.levels[0], D.levels[1]
    scanned, verified = [], []
    gauge_images, check = descent._gauge_images, descent.is_gauge

    def recorded_images(scan, src):
        for t, dst in gauge_images(scan, src):
            scanned.append((src, t))
            yield t, dst

    def recorded_check(D, t, src, dst):
        verified.append(src)
        return check(D, t, src, dst)

    monkeypatch.setattr(descent, "_gauge_images", recorded_images)
    monkeypatch.setattr(descent, "is_gauge", recorded_check)
    table = gauge_classes(D)
    assert len(table.reps) == 2
    assert scanned == [
        (src, (f, c))
        for src in table.members
        for f in L0.g1.out_of(src.x)
        for c in sorted(L1.g2.group(vertex_object(D, src.x, 0, 1)).elements)
    ]
    assert verified == table.members


@pytest.mark.parametrize("base", ["union", "inner-z3"])
def test_mutated_cofaces_give_the_oracle_table_or_raise(base, fat_union):
    """On diagrams with one coface entry changed at random, the library
    returns exactly the breadth-first oracle's table, or raises."""
    D = fat_union[0] if base == "union" else fatten_diagram(
        constant_diagram(NAMED_CROSSED[base]()), 2)[0]
    rng = random.Random(1)
    returned = raised = 0
    for _ in range(300):
        key = rng.choice(sorted(D.cofaces))
        kind = rng.choice(("mor1", "mor2"))
        d = D.cofaces[key]
        element = rng.choice(sorted(getattr(d, f"{kind}_map")))
        pool = d.target.g1.source if kind == "mor1" else d.target.g2.owner
        M = with_coface_entry(D, key, kind, element, rng.choice(sorted(pool)))
        try:
            table = gauge_classes(M)
        except CrossedDescError:
            raised += 1
            continue
        assert _table(table) == _table(bfs_gauge_classes(M))
        returned += 1
    assert returned and raised


def test_mutated_coface_image_outside_the_class_is_named(fat_union):
    """One mutation of the two-class fattening where the scan's class check
    fires; the breadth-first search only failed at witness verification."""
    M = with_coface_entry(fat_union[0], (1, 2), "mor2", "2.1:0@0", "2.0:0@0")
    with pytest.raises(CrossedDescError) as raised:
        gauge_classes(M)
    assert str(raised.value) == (
        "gauge image DescentDatum(x='*:0@0', g='1:0@0.0', a='2.1:0@0') of "
        "DescentDatum(x='*:0@1', g='1:0@1.1', a='2.0:0@1') lies outside the class of "
        "DescentDatum(x='*:0@0', g='1:0@0.0', a='2.0:0@0')"
    )
    with pytest.raises(CrossedDescError, match="failed verification"):
        bfs_gauge_classes(M)


def _relevel(D, p, level):
    """D with level p replaced by `level`, every coface re-pointed to it."""
    levels = D.levels[:p] + (level,) + D.levels[p + 1:]
    cofaces = {
        (q, k): CrossedMorphism(levels[q], levels[q + 1], d.obj_map, d.mor1_map, d.mor2_map)
        for (q, k), d in D.cofaces.items()
    }
    return CrossedDiagram(levels, cofaces)


def _swap_composites(D, p, i, j):
    """D with two results of level p's composition table swapped, both with
    the endpoints of the first: the table stays typed, but need not be
    associative any more."""
    L, G = D.levels[p], D.levels[p].g1
    keys = sorted(G.table)
    first = keys[i % len(keys)]

    def ends(k):
        return G.source[G.table[k]], G.target[G.table[k]]

    partners = [k for k in keys if ends(k) == ends(first)]
    second = partners[j % len(partners)]
    table = dict(G.table)
    table[first], table[second] = table[second], table[first]
    g1 = FiniteGroupoid(G.objects, G.source, G.target, G.identities, table, G.inverses)
    return _relevel(D, p, CrossedGroupoid(g1, L.g2, L.twist_table, L.feedback_table))


def _rewrite_twist(D, p, i, j):
    """D with one twist entry of level p sent to another 2-morphism at the
    same object."""
    L = D.levels[p]
    keys = sorted(L.twist_table)
    g, a = keys[i % len(keys)]
    cells = L.g2.group(L.g1.target[g]).elements
    twist = dict(L.twist_table)
    twist[(g, a)] = cells[j % len(cells)]
    return _relevel(D, p, CrossedGroupoid(L.g1, L.g2, twist, L.feedback_table))


def _edited_group(G, kind, j, k):
    """G as a table-backed group with one edit: a product sent to another
    element ("product"), an inverse sent to another element ("inverse"), or
    a product deleted ("unpair"), which a multiplication then misses.  An
    entry G lacks, after an earlier edit, stays missing."""
    elements = G.elements
    table = {(a, b): r for a in elements for b in elements
             if (r := G.mul_or_none(a, b)) is not None}
    inverses = {a: r for a in elements if (r := G.inv_or_none(a)) is not None}
    keys = sorted(table)
    if kind == "product":
        table[keys[j % len(keys)]] = elements[k % len(elements)]
    elif kind == "inverse":
        inverses[elements[j % len(elements)]] = elements[k % len(elements)]
    else:
        del table[keys[j % len(keys)]]
    return FiniteGroup.from_table(elements, table, G.identity, inverses)


def _with_edited_group(C, kind, i, j, k):
    """C with the group at one object replaced by `_edited_group`'s copy;
    the twist and feedback tables are C's."""
    groups = dict(C.g2.groups)
    x = sorted(groups)[i % len(groups)]
    groups[x] = _edited_group(groups[x], kind, j, k)
    return CrossedGroupoid(C.g1, DisconnectedGroupoid(groups), C.twist_table, C.feedback_table)


def _rewrite_group(D, kind, i, j, k):
    """D with one g2 table of level 1, 2 or 3 edited (`_edited_group`): a
    level whose groups have at most 64 elements, so that its table is
    quick to list (level 1 of the cover; every level of a fattening)."""
    levels = [p for p in (1, 2, 3) if max(map(len, D.levels[p].g2.groups.values())) <= 64]
    p = levels[i % len(levels)]
    return _relevel(D, p, _with_edited_group(D.levels[p], kind, i // 3, j, k))


def _edit(D, kind, i, j, k):
    """D with one edit of `kind`; the integers pick entries modulo their count."""
    if kind in ("mor1", "mor2"):
        key = sorted(D.cofaces)[i % len(D.cofaces)]
        d = D.cofaces[key]
        elements = sorted(getattr(d, f"{kind}_map"))
        pool = sorted(d.target.g1.source if kind == "mor1" else d.target.g2.owner)
        return with_coface_entry(D, key, kind, elements[j % len(elements)], pool[k % len(pool)])
    if kind in _GROUP_EDITS:
        return _rewrite_group(D, kind, i, j, k)
    edit = _swap_composites if kind == "compose" else _rewrite_twist
    return edit(D, 1 + i % 2, j, k)


_GROUP_EDITS = ("product", "inverse", "unpair")
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["mor1", "mor2", "compose", "twist", *_GROUP_EDITS]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=3,
)


@pytest.fixture(scope="module")
def scan_diagrams(fat_union, diag_cech):
    fat = {name: fatten_diagram(constant_diagram(NAMED_CROSSED[name]()), 2)[0]
           for name in ("inner-z3", "s3-a3", "inner-s3")}
    return {"union": fat_union[0], **fat, "cech": diag_cech}


def _outcome(classify, D):
    """The table a classifier returns, or the type and message it raises."""
    try:
        return _table(classify(D))
    except Exception as exc:
        return type(exc), str(exc)


# no deadline: the cech examples are slow, not wrong
@pytest.mark.hashseed
@settings(deadline=None)
@given(st.sampled_from(["union", "inner-z3", "s3-a3", "inner-s3", "cech"]), _EDITS)
def test_scan_matches_the_scan_oracle_on_mutated_diagrams(scan_diagrams, name, edits):
    """With coface entries remapped, level-1 and level-2 composites swapped,
    twist entries rewritten and g2 tables edited, the library returns the
    table of the scan that evaluated every candidate through the checked
    accessors, insertion order included, or raises its error."""
    D = scan_diagrams[name]
    for edit in edits:
        D = _edit(D, *edit)
    assert _outcome(gauge_classes, D) == _outcome(scan_gauge_classes, D)


def _yielded(items):
    """What a generator yields, then the type and message it raises, if any."""
    out = []
    try:
        for item in items:
            out.append(item)
    except Exception as exc:
        out.append((type(exc), str(exc)))
    return out


def _checked_images(D, src):
    """`descent._gauge_images` through the checked formulas alone: every
    candidate (f, c) out of `src`, in scan order, with its image."""
    L0, L1 = D.levels[0], D.levels[1]
    for f in L0.g1.out_of(src.x):
        for c in sorted(L1.g2.group(vertex_object(D, src.x, 0, 1)).elements):
            t = GaugeTransformation(f, c)
            g, a = descent._predicted_g(D, src.g, t), descent._predicted_a(D, src, t)
            yield (f, c), (L0.g1.dst(f), g, a)


# no deadline: the cech examples are slow, not wrong
@pytest.mark.hashseed
@settings(deadline=None)
@given(st.sampled_from(["union", "inner-z3", "s3-a3", "inner-s3", "cech"]), _EDITS)
def test_each_gauge_candidate_matches_the_checked_formulas(scan_diagrams, name, edits):
    """On the mutated diagrams of the scan test, the scan gives every
    candidate of every member the checked image, and raises the checked
    error at the candidate where the checked formulas raise: a fast path
    that skipped a check would give an image there."""
    D = scan_diagrams[name]
    for edit in edits:
        D = _edit(D, *edit)
    members = _enumerated(enumerate_descent, D)
    if not isinstance(members, list) or not members:
        return
    scan = descent._GaugeScan(D, members)
    for src in members:
        assert _yielded(descent._gauge_images(scan, src)) == _yielded(_checked_images(D, src))


def _enumerated(enumerator, D):
    """The list an enumeration returns, or the type and message it raises."""
    try:
        return enumerator(D)
    except Exception as exc:
        return type(exc), str(exc)


def _checked_lhs(L3, faces):
    """`descent._twisted_lhs` through the checked products of `L3.g2` alone."""
    a012, a013, a023, _ = faces
    grp = L3.g2
    return grp.mul(grp.mul(grp.inv(a013), a023), a012)


def _checked_enumeration(D):
    """`_enumerated(checked_descent_data, D)` with the left twisted side
    evaluated by `_checked_lhs`, so that no fast path of the library is in
    the oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(descent, "_twisted_lhs", _checked_lhs)
        return _enumerated(checked_descent_data, D)


# no deadline: the cech examples are slow, not wrong
@pytest.mark.hashseed
@settings(deadline=None)
@given(st.sampled_from(["union", "inner-z3", "s3-a3", "inner-s3", "cech"]), _EDITS)
def test_enumeration_matches_the_checked_oracle_on_mutated_diagrams(
    scan_diagrams, name, edits
):
    """On the mutated diagrams of the scan test, enumeration returns the list
    of the loop that sent every candidate through `is_descent_datum` and the
    checked products, in order, or raises its error."""
    D = scan_diagrams[name]
    for edit in edits:
        D = _edit(D, *edit)
    assert _enumerated(enumerate_descent, D) == _checked_enumeration(D)


@pytest.mark.hashseed
@pytest.mark.parametrize("copies", [1, 2])
def test_the_right_side_twists_by_the_inverse_of_g_01(copies):
    """On inner-s3, twisting is conjugation, so twist(g, -) and twist(g^-1, -)
    differ when g is conjugation by a 3-cycle a.  With a's faces edited,
    a_(0,1,2) -> a^-1 . b . a and a_(1,2,3) -> b for a transposition b, the
    datum (x, feedback(a), a) meets the second condition only through
    twist(g_(0,1)^-1, b); enumeration finds it, as the checked oracle does."""
    D = fatten_diagram(constant_diagram(NAMED_CROSSED["inner-s3"]()), copies)[0]
    x = sorted(D.levels[0].objects)[0]
    grp = D.levels[2].g2.group(vertex_object(D, x, 0, 2))
    one = grp.identity
    a = next(e for e in sorted(grp) if grp.mul(e, e) != one)
    b = next(e for e in sorted(grp) if e != one and grp.mul(e, e) == one)
    c = grp.mul(grp.mul(grp.inv(a), b), a)
    assert c != grp.mul(grp.mul(a, b), grp.inv(a))
    D = with_coface_entry(D, (2, 3), "mor2", a, c)  # a_(0,1,2)
    D = with_coface_entry(D, (2, 0), "mor2", a, b)  # a_(1,2,3)
    data = enumerate_descent(D)
    assert DescentDatum(x, D.levels[1].feedback(a), a) in data
    assert data == _checked_enumeration(D)


_BUILDS = {
    "cech": lambda C: cech_diagram(C, 2),
    "fattened": lambda C: fatten_diagram(constant_diagram(C), 2)[0],
    "fattened cech": lambda C: fatten_diagram(cech_diagram(C, 2), 2)[0],
}


# no deadline: the cech examples are slow, not wrong
@pytest.mark.hashseed
@settings(deadline=None)
@given(
    st.sampled_from([("cech", "fix-a-core"), ("fattened cech", "fix-a-core"),
                     ("fattened", "inner-z3"), ("fattened", "s3-a3"), ("fattened", "fix-c-core")]),
    st.sampled_from(_GROUP_EDITS),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
)
def test_scan_and_enumeration_match_the_oracles_on_edited_bases(build, kind, i, j, k):
    """A base whose g2 table was edited before the diagram was built
    (`_with_edited_group`): the cover's product groups and the fattening's
    tagged groups multiply through the edited table.  Enumeration and the
    scan return what the checked oracles return, or raise their errors."""
    construction, name = build
    D = _BUILDS[construction](_with_edited_group(NAMED_CROSSED[name](), kind, i, j, k))
    assert _enumerated(enumerate_descent, D) == _checked_enumeration(D)
    assert _outcome(gauge_classes, D) == _outcome(scan_gauge_classes, D)


@pytest.mark.hashseed
def test_enumeration_raises_the_left_side_of_the_second_condition_first():
    """The first candidate's two twisted sides both raise, with different
    errors: its face a_(0,1,3) and its face a_(1,2,3) are sent to copy 1.
    Enumeration raises the checked oracle's error, the left side's."""
    D = fatten_diagram(constant_diagram(NAMED_CROSSED["inner-z3"]()), 2)[0]
    for key in ((2, 2), (2, 0)):  # the cofaces giving a_(0,1,3) and a_(1,2,3)
        D = with_coface_entry(D, key, "mor2", "2.0@0", "2.1@1")
    x, L3 = "*@0", D.levels[3]
    g = D.levels[1].g1.hom(vertex_object(D, x, 0, 1), vertex_object(D, x, 1, 1))[0]
    faces = descent._cell_faces(D, "2.0@0")
    g01 = D.face((0, 1), 3).apply_mor1(g)
    sides = []
    for side in (lambda: descent._twisted_lhs(L3, faces),
                 lambda: descent._twisted_rhs(L3, g01, faces[3])):
        with pytest.raises(DomainError) as raised:
            side()
        sides.append(str(raised.value))
    assert sides[0] != sides[1]
    assert _enumerated(enumerate_descent, D) == _enumerated(checked_descent_data, D) == (
        DomainError, sides[0])


def test_witnesses_verify(diag_cech):
    table = gauge_classes(diag_cech)
    for m in table.members:
        ok, _ = is_gauge(diag_cech, table.witnesses[m], m, table.rep_of[m])
        assert ok


def test_gauge_identity_compose_invert(fat_a):
    """The generated structure stays inside the verified relation."""
    fat, _ = fat_a
    data = enumerate_descent(fat)
    for s in data:
        ident = gauge_identity(fat, s)
        ok, _ = is_gauge(fat, ident, s, s)
        assert ok
    for s, d in itertools.product(data, repeat=2):
        for t in _all_gauges(fat, s, d):
            inv = gauge_invert(fat, t)
            ok, _ = is_gauge(fat, inv, d, s)
            assert ok
            for e in data:
                for t2 in _all_gauges(fat, d, e):
                    comp = gauge_compose(fat, t2, t)
                    ok, _ = is_gauge(fat, comp, s, e)
                    assert ok


def test_gauge_compose_rejects_mismatched(fat_a):
    fat, _ = fat_a
    data = enumerate_descent(fat)
    s = data[0]
    t = gauge_identity(fat, s)
    other = next(d for d in data if d.x != s.x)
    t_other = gauge_identity(fat, other)
    with pytest.raises(DomainError):
        gauge_compose(fat, t_other, t)


# -- completion ---------------------------------------------------------


def _completion_triples(D):
    """Every (src datum, partial destination, partial gauge) that type-checks
    and satisfies the first gauge condition."""
    from crossed_desc.descent import _predicted_g

    L0, L1 = D.levels[0], D.levels[1]
    for src in enumerate_descent(D):
        x0 = vertex_object(D, src.x, 0, 1)
        for f in sorted(L0.g1.source):
            if L0.g1.src(f) != src.x:
                continue
            for c in sorted(L1.g2.group(x0).elements):
                t = GaugeTransformation(f, c)
                dst_x = L0.g1.dst(f)
                dst_g = _predicted_g(D, src.g, t)
                yield src, PartialDescentDatum(dst_x, dst_g), t


def test_completion_unique_and_valid_exhaustive(diag_a, diag_cech, fat_a):
    for D in (diag_a, diag_cech, fat_a[0]):
        count = 0
        for src, partial, t in _completion_triples(D):
            a_prime, dst = complete_descent(D, src, partial, t)
            # uniqueness: no other 2-cell in the ambient group works
            x0_2 = vertex_object(D, partial.x, 0, 2)
            others = [
                b
                for b in D.levels[2].g2.group(x0_2)
                if b != a_prime
                and is_gauge(D, t, src, DescentDatum(partial.x, partial.g, b))[0]
            ]
            assert others == []
            count += 1
        assert count > 0


def test_completion_rejects_non_partial_gauge(diag_a):
    data = enumerate_descent(diag_a)
    src = data[0]
    t = gauge_identity(diag_a, src)
    with pytest.raises(DomainError):
        complete_descent(
            diag_a, src, PartialDescentDatum(src.x, "0"), t
        )  # wrong predicted 1-morphism
