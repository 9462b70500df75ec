import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from crossed_desc import (
    CrossedGroupoid,
    CrossedMorphism,
    DisconnectedGroupoid,
    DomainError,
    FiniteGroup,
    ResourceBoundError,
    homotopy,
    is_weak_equivalence_crossed,
    validate_crossed,
    validate_crossed_morphism,
    validate_group,
)
from crossed_desc.fixtures import (
    NAMED_CROSSED,
    _power_level,
    cyclic_group,
    fatten,
    fix_a_core,
    fix_b_core,
    fix_c_core,
    inner_crossed,
    symmetric_group,
    trivial_group,
    crossed_group,
    one_object_crossed,
)

from crossed_desc.crossed import _tag_map, _TaggedGroup
from crossed_desc.validation import LoadError

from builders import FATTENING_BASES, ODD_ID_BASES, POWER_BASES, disjoint_union, loop5
from oracles import (
    brute_group_violations,
    eager_product,
    brute_twist_action_violations,
    scanned_weak_equivalence,
    walked_crossed_violations,
)


@pytest.mark.parametrize("name", sorted(NAMED_CROSSED))
def test_named_fixtures_validate(name):
    report = validate_crossed(NAMED_CROSSED[name]())
    assert report.ok, [v.detail for v in report]


def test_group_axioms_checked():
    bad = FiniteGroup.from_table(
        ("e", "a"),
        {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a"},
        "e",
        {"e": "e", "a": "a"},
    )
    report = validate_group(bad)
    assert "group-inverse" in report.rules()


def test_product_group_arithmetic():
    P = FiniteGroup.product([cyclic_group(2), cyclic_group(3)])
    assert len(P) == 6
    assert P.mul("1|2", "1|2") == "0|1"
    assert P.inv("1|2") == "1|1"
    assert P.identity == "0|0"


def _raised(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except (DomainError, LoadError, TypeError) as exc:
        return type(exc), str(exc)


def _computed(G):
    """G with the same products and inverses, computed: no tables kept."""
    return FiniteGroup(G.elements, G.identity, G._mul, G._inv)


def _recording(G, calls):
    """G as a table-backed group whose products and inverses are appended
    to `calls` when they are computed factor by factor."""
    H = FiniteGroup.from_table(G.elements, dict(G.table), G.identity, dict(G.inverses))
    mul, inv = H._mul, H._inv
    H._mul = lambda a, b: calls.append((a, b)) or mul(a, b)
    H._inv = lambda a: calls.append(a) or inv(a)
    return H


def _answers_on_every_pair(lazy, eager):
    for a in eager.elements:
        assert _raised(lazy.inv, a) == _raised(eager.inv, a)
        for b in eager.elements:
            assert _raised(lazy.mul, a, b) == _raised(eager.mul, a, b)


@pytest.mark.parametrize("computed", [(), (0,), (1,), (0, 1, 2)])
def test_a_product_reads_the_factor_tables_only_when_all_have_them(computed):
    """Z/2 x S3 x Z/3 multiplies and inverts as the eager product on every
    pair.  With every factor table-backed it reads their tables and calls
    no factor; with a computed factor (`computed` names which) it calls
    every factor, once per coordinate."""
    calls = []
    groups = (cyclic_group(2), symmetric_group(3), cyclic_group(3))
    factors = [_recording(G, calls) for G in groups]
    factors = [_computed(G) if i in computed else G for i, G in enumerate(factors)]
    lazy, eager = FiniteGroup.product(factors), eager_product(factors)
    _answers_on_every_pair(lazy, eager)
    calls.clear()
    for a in eager.elements:
        lazy.inv(a)
        for b in eager.elements:
            lazy.mul(a, b)
    n = len(eager)
    assert len(calls) == (0 if not computed else 3 * (n * n + n))


@pytest.mark.parametrize("computed", [False, True])
@pytest.mark.parametrize("missing", ["pair", "inverse"])
def test_a_factor_table_missing_an_entry_raises_the_per_factor_error(missing, computed):
    """A factor whose table lacks one product or one inverse: the product
    raises the `LoadError` the eager product raises, with the same text,
    whether or not another factor is computed."""
    z3 = cyclic_group(3)
    table, inverses = dict(z3.table), dict(z3.inverses)
    if missing == "pair":
        del table[("1", "2")]
    else:
        del inverses["2"]
    broken = FiniteGroup.from_table(z3.elements, table, z3.identity, inverses)
    z2 = _computed(cyclic_group(2)) if computed else cyclic_group(2)
    lazy, eager = FiniteGroup.product([z2, broken]), eager_product([z2, broken])
    _answers_on_every_pair(lazy, eager)
    if missing == "pair":
        assert _raised(lazy.mul, "1|1", "0|2") == (
            LoadError, "multiplication pair ('1', '2') missing from table")
    else:
        assert _raised(lazy.inv, "0|2") == (LoadError, "inverse of '2' missing from table")


@pytest.mark.parametrize("listed", [False, True])
@pytest.mark.parametrize("make", [
    lambda: _TaggedGroup(symmetric_group(3), "@1"),
    lambda: FiniteGroup.product([cyclic_group(2), symmetric_group(3)]),
    lambda: _TaggedGroup(FiniteGroup.product([cyclic_group(2)] * 2), "@0"),
], ids=["tagged", "product", "tagged-product"])
def test_lazy_groups_refuse_what_is_not_a_member(make, listed):
    """A tagged or product group, before and after it is listed, and with
    members accepted earlier: `mul` and `inv` raise the `DomainError` of
    `FiniteGroup.mul` and `inv` on a non-member, and `TypeError` on an
    unhashable value, as membership in a set does."""
    G = make()
    if listed:
        G.elements
    a = G.identity
    G.mul(a, a)  # `a` is accepted from here on
    for other in ("x", a + "x", a[:-1], "", 5, None, ("a",)):
        assert _raised(G.inv, other) == (DomainError, f"{other!r} is not an element of this group")
        for x, y in ((a, other), (other, a), (other, other)):
            assert _raised(G.mul, x, y) == (
                DomainError, f"{x!r} or {y!r} is not an element of this group")
    for other in ([1], {"a": 1}):
        assert _raised(G.inv, other)[0] is TypeError
        for x, y in ((a, other), (other, a)):
            assert _raised(G.mul, x, y)[0] is TypeError
    assert G.mul(a, a) == G.inv(a) == a


def _rebuild(C, twist_table=None, feedback_table=None):
    return CrossedGroupoid(
        C.g1,
        C.g2,
        dict(C.twist_table) if twist_table is None else twist_table,
        dict(C.feedback_table) if feedback_table is None else feedback_table,
    )


def test_broken_peiffer_reported():
    C = fix_c_core()  # identity crossed module on Z/2: twist is conjugation
    twist = dict(C.twist_table)
    # conjugation by the nontrivial element must fix everything in an abelian
    # group; swapping one value breaks the Peiffer identity
    twist[("1", "2.1")] = "2.0"
    report = validate_crossed(_rebuild(C, twist_table=twist))
    assert not report.ok
    assert {"peiffer"} & report.rules()


def test_broken_equivariance_reported():
    C = NAMED_CROSSED["s3-a3"]()
    twist = dict(C.twist_table)
    (g, a) = next((g, a) for (g, a) in twist if twist[(g, a)] != a)
    twist[(g, a)] = a
    report = validate_crossed(_rebuild(C, twist_table=twist))
    assert not report.ok
    assert {"equivariance", "twist-homomorphism", "twist-action", "twist-bijective",
            "peiffer"} & report.rules()


def test_broken_feedback_functor_reported():
    C = NAMED_CROSSED["s3-a3"]()
    fb = dict(C.feedback_table)
    a = next(a for a in fb if fb[a] != C.g1.identity("*"))
    fb[a] = C.g1.identity("*")
    report = validate_crossed(_rebuild(C, feedback_table=fb))
    assert not report.ok
    assert {"feedback-functor", "equivariance", "peiffer"} & report.rules()


def test_missing_twist_entry_rejected():
    C = fix_b_core()
    twist = dict(C.twist_table)
    twist.popitem()
    with pytest.raises(Exception):
        _rebuild(C, twist_table=twist)


def test_twist_feedback_domain_errors():
    C = fix_c_core()
    with pytest.raises(DomainError):
        C.feedback("nope")
    with pytest.raises(DomainError):
        C.twist("0", "nope")


ACTION_CROSSED = {
    **{f"fat-{name}": fatten(NAMED_CROSSED[name](), 2)[0]
       for name in ("inner-s3", "inner-z3", "s3-a3")},
    "union": disjoint_union(fix_a_core(), fix_c_core()),
}


def _rewrite_rows(C, edits):
    """Apply (kind, i, j) edits to twist rows of C: row g is twist(g, -)."""
    twist = dict(C.twist_table)
    morphs = C.g1.morphisms
    for kind, i, j in edits:
        g = morphs[i % len(morphs)]
        grp = C.g2.group(C.g1.source[g])
        row = {a: twist[(g, a)] for a in grp}
        if kind == "invert":  # precompose with a -> a^-1
            new = {a: row[grp.inv(a)] for a in grp}
        elif kind == "shift":  # precompose with a cyclic shift of the elements
            els = grp.elements
            new = {a: row[els[(k + j) % len(els)]] for k, a in enumerate(els)}
        else:  # borrow the row of another morphism with the same endpoints
            parallel = C.g1.hom(C.g1.source[g], C.g1.target[g])
            other = parallel[j % len(parallel)]
            new = {a: twist[(other, a)] for a in grp}
        twist.update({(g, a): r for a, r in new.items()})
    return _rebuild(C, twist_table=twist)


@given(
    st.sampled_from(sorted(ACTION_CROSSED)),
    st.lists(
        st.tuples(
            st.sampled_from(["invert", "shift", "borrow"]),
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_twist_action_on_generators_matches_the_pair_walk(name, edits):
    C = _rewrite_rows(ACTION_CROSSED[name], edits)
    report = validate_crossed(C)
    found = [(v.rule, v.detail) for v in report if v.rule == "twist-action"]
    assert found == brute_twist_action_violations(C)


def test_twist_action_only_failure_is_walked_in_full():
    """Inversion is an automorphism of Z/3 and fixes the feedback, so every
    rule but the action still holds; the generator check must find it, and
    the report must name every violated instance."""
    C = fatten(NAMED_CROSSED["inner-z3"](), 2)[0]
    units = set(C.g1.identities.values())
    g = next(m for m in C.g1.morphisms if m not in units)
    C = _rewrite_rows(C, [("invert", C.g1.morphisms.index(g), 0)])
    report = validate_crossed(C)
    assert report.rules() == {"twist-action"}
    assert [(v.rule, v.detail) for v in report] == brute_twist_action_violations(C)


def _table_group(G, swaps=()):
    """G as a table-backed group, with the results of the entries at each
    (kind, i, j) pair of sorted keys swapped: any entries for "swap-any",
    entries that involve no identity and give none for "swap-plain" (units and
    inverses then stay right, so only associativity can break)."""
    table = {(a, b): G.mul(a, b) for a in G for b in G}
    keys = sorted(table)
    plain = [k for k in keys if G.identity not in (*k, table[k])]
    for kind, i, j in swaps:
        pool = plain if kind == "swap-plain" else keys
        if pool:
            k1, k2 = pool[i % len(pool)], pool[j % len(pool)]
            table[k1], table[k2] = table[k2], table[k1]
    return FiniteGroup.from_table(G.elements, table, G.identity, {a: G.inv(a) for a in G})


ORACLE_GROUPS = {
    "s3": symmetric_group(3),
    "z4": cyclic_group(4),
    "z6": cyclic_group(6),
    "z2xz2": FiniteGroup.product([cyclic_group(2)] * 2),
}


@pytest.mark.hashseed
@given(
    st.sampled_from(sorted(ORACLE_GROUPS)),
    st.lists(
        st.tuples(
            st.sampled_from(["swap-any", "swap-plain"]),
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_group_validator_matches_the_triple_walk(name, swaps):
    G = _table_group(ORACLE_GROUPS[name], swaps)
    assert [(v.rule, v.detail) for v in validate_group(G)] == brute_group_violations(G)


@pytest.mark.hashseed
def test_group_associativity_only_failure_is_walked_in_full():
    """The order-5 loop has units and inverses but is not associative: the
    generator check must find it, and the report must name every triple."""
    L = loop5()
    G = FiniteGroup.from_table(L.morphisms, L.table, "0", L.inverses)
    report = validate_group(G)
    assert report.rules() == {"group-associativity"}
    assert [(v.rule, v.detail) for v in report] == brute_group_violations(G)


@pytest.mark.hashseed
def test_group_closure_is_bounded_before_it_is_walked(monkeypatch):
    """2^16 elements need 2^32 closure checks: the validator refuses before
    it multiplies anything."""
    G = FiniteGroup.product([cyclic_group(2)] * 16)
    products = []
    monkeypatch.setattr(G, "_mul", lambda a, b: products.append((a, b)))
    with pytest.raises(ResourceBoundError, match="group closure"):
        validate_group(G)
    assert products == []


def _swap_entries(C, edits):
    """C with the feedback values of two 2-morphisms swapped for each
    ("swap-feedback", i, j) edit, and two products of the group at one object
    swapped for each ("swap-product", i, j) edit (`_table_group`)."""
    fb, groups = dict(C.feedback_table), dict(C.g2.groups)
    cells = sorted(fb)
    for kind, i, j in edits:
        if kind == "swap-feedback":
            a, b = cells[i % len(cells)], cells[j % len(cells)]
            fb[a], fb[b] = fb[b], fb[a]
        else:
            x = C.g2.objects[i % len(C.g2.objects)]
            groups[x] = _table_group(groups[x], [("swap-any", i, j)])
    return CrossedGroupoid(C.g1, DisconnectedGroupoid(groups), dict(C.twist_table), fb)


@pytest.mark.hashseed
@given(
    st.sampled_from(sorted(ACTION_CROSSED)),
    st.lists(
        st.tuples(
            st.sampled_from(["invert", "shift", "borrow", "swap-feedback", "swap-product"]),
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_crossed_validator_matches_the_pair_walks(name, edits):
    """With twist rows rewritten, feedback values swapped and group products
    swapped, the report is the one every law's walk gives, rule by rule and
    in order."""
    swaps = [e for e in edits if e[0].startswith("swap")]
    C = _rewrite_rows(ACTION_CROSSED[name], [e for e in edits if e not in swaps])
    C = _swap_entries(C, swaps)
    assert [(v.rule, v.detail) for v in validate_crossed(C)] == walked_crossed_violations(C)


_Z3 = crossed_group(cyclic_group(3)).g2.group("*")  # elements 2.0, 2.1, 2.2


def _only_twist_homomorphism_fails():
    """Z/2 twisting Z/3 by the involution swapping 2.0 and 2.1: a bijection
    and an action, equivariant and Peiffer for the trivial feedback of an
    abelian group, but not a homomorphism."""
    swap = {"2.0": "2.1", "2.1": "2.0"}
    return one_object_crossed(cyclic_group(2), _Z3, {a: "0" for a in _Z3},
                              lambda g, a: swap.get(a, a) if g == "1" else a)


def _only_feedback_functor_fails():
    """Z/2 acting trivially on Z/3, with a feedback that keeps the unit but
    is not a homomorphism; everything is abelian, so equivariance and
    Peiffer hold."""
    return one_object_crossed(cyclic_group(2), _Z3, {"2.0": "0", "2.1": "1", "2.2": "0"},
                              lambda g, a: a)


def _only_peiffer_fails():
    """S3 over the trivial group: trivial twist and feedback satisfy every
    law but Peiffer, which needs an abelian group here."""
    s3 = NAMED_CROSSED["inner-s3"]().g2.group("*")
    return one_object_crossed(trivial_group(), s3, {a: "1" for a in s3}, lambda g, a: a)


@pytest.mark.hashseed
@pytest.mark.parametrize("rule, build", [
    ("twist-homomorphism", _only_twist_homomorphism_fails),
    ("feedback-functor", _only_feedback_functor_fails),
    ("peiffer", _only_peiffer_fails),
])
@pytest.mark.parametrize("copies", [1, 2])
def test_only_failing_law_is_walked_in_full(rule, build, copies):
    """Every law the proof of `rule` rests on holds, so only the generator
    check can find the failure; the report must name every violated pair."""
    C = fatten(build(), copies)[0]
    report = validate_crossed(C)
    assert report.rules() == {rule}
    assert [(v.rule, v.detail) for v in report] == walked_crossed_violations(C)


# -- homotopy invariants ------------------------------------------------


def test_homotopy_fix_a_core():
    h = homotopy(fix_a_core())
    assert h.pi1["*"].reps == ("1",)  # trivial lower group
    assert len(h.pi2["*"]) == 2  # all of Z/2 is in the kernel


def test_homotopy_fix_b_core():
    h = homotopy(fix_b_core())
    assert len(h.pi1["*"].reps) == 2  # Z/2 survives: nothing to quotient by
    assert h.pi2["*"] == ("2.1",)


def test_homotopy_fix_c_core():
    h = homotopy(fix_c_core())
    assert len(h.pi1["*"].reps) == 1  # feedback surjective
    assert len(h.pi2["*"]) == 1  # feedback injective


def test_homotopy_inner_z3():
    h = homotopy(inner_crossed(cyclic_group(3)))
    assert len(h.pi1["*"].reps) == 2  # Aut(Z/3) = Z/2, inner part trivial
    assert len(h.pi2["*"]) == 3  # abelian: everything central


def test_homotopy_inner_s3():
    h = homotopy(inner_crossed(symmetric_group(3)))
    assert len(h.pi1["*"].reps) == 1  # Aut(S3) = Inn(S3)
    assert len(h.pi2["*"]) == 1  # trivial center


def test_homotopy_s3_a3():
    h = homotopy(NAMED_CROSSED["s3-a3"]())
    assert len(h.pi1["*"].reps) == 2  # S3 / A3
    assert len(h.pi2["*"]) == 1  # inclusion injective
    grp = h.pi1["*"].group
    nontrivial = next(r for r in grp if r != grp.identity)
    assert grp.mul(nontrivial, nontrivial) == grp.identity


def test_homotopy_is_computed_once_per_crossed_groupoid():
    for name, mk in NAMED_CROSSED.items():
        C, fresh = fatten(mk(), 2)[0], fatten(mk(), 2)[0]
        h = homotopy(C)
        assert homotopy(C) is h, name
        other = homotopy(fresh)
        assert other is not h
        assert (h.pi0, h.pi2) == (other.pi0, other.pi2), name
        assert {x: (p.reps, p.coset_of) for x, p in h.pi1.items()} == {
            x: (p.reps, p.coset_of) for x, p in other.pi1.items()}, name


def _dict_copy(C):
    """C with its tables copied into dicts, so `homotopy` scans its own groups."""
    return CrossedGroupoid(
        C.g1, C.g2, dict(C.twist_table.items()), dict(C.feedback_table.items()))


def _invariants(h):
    return h.pi0, h.pi2, {
        x: (p.reps, p.coset_of, p.group.identity) for x, p in h.pi1.items()}


@pytest.mark.hashseed
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(NAMED_CROSSED) + sorted(ODD_ID_BASES))
def test_fattened_homotopy_matches_a_dict_table_copy(name, n):
    """A fattening reads its feedback image and pi2 from its base's homotopy;
    the result equals the scan of the same level held in dicts, pi2 order
    included (the "prefix" bases' ids reorder when tagged)."""
    C = {**NAMED_CROSSED, **ODD_ID_BASES}[name]()
    fat, _ = fatten(C, n)
    assert _invariants(homotopy(fat)) == _invariants(homotopy(_dict_copy(fat)))


def test_fattened_cover_homotopy_matches_a_dict_table_copy(fat_cech):
    for level in {id(L): L for L in fat_cech[0].levels}.values():
        assert level.fattening is not None
        assert _invariants(homotopy(level)) == _invariants(homotopy(_dict_copy(level)))


@pytest.mark.hashseed
@pytest.mark.parametrize("name", sorted(POWER_BASES))
def test_power_homotopy_matches_a_dict_table_copy(name):
    """A power (a cover level) takes its feedback image and pi2 as powers of
    its base's; the result equals the scan of the same level held in dicts,
    pi2 order included (joined "prefix" ids sort apart from product order)."""
    make, exponents = POWER_BASES[name]
    C = make()
    for k in exponents:
        level = _power_level(C, k)
        assert _invariants(homotopy(level)) == _invariants(homotopy(_dict_copy(level)))


@pytest.mark.hashseed
def test_cover_homotopy_matches_a_dict_table_copy(diag_cech):
    for level in diag_cech.levels:
        assert level.power is not None
        assert _invariants(homotopy(level)) == _invariants(homotopy(_dict_copy(level)))


def test_pi1_cokernel_is_a_group():
    h = homotopy(NAMED_CROSSED["s3-a3"]())
    assert validate_group(h.pi1["*"].group).ok


# -- weak equivalences --------------------------------------------------


def test_fatten_inclusion_is_weak_equivalence():
    for name in ("fix-a-core", "s3-a3", "inner-z3"):
        C = NAMED_CROSSED[name]()
        fat, incl = fatten(C, 3)
        assert validate_crossed(fat).ok
        assert validate_crossed_morphism(incl).ok
        ok, report = is_weak_equivalence_crossed(incl)
        assert ok, [v.detail for v in report]


def _checked_as_the_scan(F, monkeypatch):
    """`is_weak_equivalence_crossed(F)` gives the verdict and report of the
    scan oracle; returns how many 2-morphisms it mapped (0 when it proved
    pi2 through the base)."""
    want = scanned_weak_equivalence(F)
    mapped = []
    apply_mor2 = CrossedMorphism.apply_mor2
    monkeypatch.setattr(CrossedMorphism, "apply_mor2",
                        lambda self, a: mapped.append(a) or apply_mor2(self, a))
    ok, report = is_weak_equivalence_crossed(F)
    monkeypatch.undo()
    assert ok == want[0]
    assert report.as_json() == want[1].as_json()
    return len(mapped)


@pytest.mark.hashseed
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(FATTENING_BASES))
def test_inclusion_weak_equivalence_matches_the_scan_oracle(name, n, monkeypatch):
    """The inclusion of copy 0 is proven a weak equivalence through its base,
    with no pi2 scan, and the verdict and report are the scan's."""
    fat, incl = fatten(FATTENING_BASES[name](), n)
    assert _checked_as_the_scan(incl, monkeypatch) == 0
    assert is_weak_equivalence_crossed(incl)[0]


def _remapped(name, incl):
    """The inclusion with its tag view copied into a dict and one kernel id
    sent to another element of its group."""
    S = incl.source
    x = next(x for x in S.objects if len(S.g2.group(x)) > 1)
    a = homotopy(S).pi2[x][0]
    mor2 = dict(incl.mor2_map)
    mor2[a] = next(b for b in incl.target.g2.group(f"{x}@0") if b != mor2[a])
    return CrossedMorphism(S, incl.target, incl.obj_map, incl.mor1_map, mor2)


def _copy_one_tag(name, incl):
    """The tag view a -> a@1 with objects still sent to copy 0."""
    return CrossedMorphism(incl.source, incl.target, incl.obj_map, incl.mor1_map,
                           _tag_map(incl.source, "@1"))


def _view_of_an_equal_base(name, incl):
    """The tag view a -> a@0 over a base equal to the source but another
    object."""
    return CrossedMorphism(incl.source, incl.target, incl.obj_map, incl.mor1_map,
                           _tag_map(NAMED_CROSSED[name](), "@0"))


def _into_an_equal_base(name, incl):
    """The inclusion into the fattening of a base equal to its source but
    another object."""
    other, _ = fatten(NAMED_CROSSED[name](), incl.target.fattening[1])
    return CrossedMorphism(incl.source, other, incl.obj_map, incl.mor1_map, incl.mor2_map)


@pytest.mark.hashseed
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["fix-a-core", "inner-z3", "s3-a3"])
@pytest.mark.parametrize("control, weak", [
    (_remapped, False), (_copy_one_tag, False), (_view_of_an_equal_base, True),
    (_into_an_equal_base, True)])
def test_other_maps_into_a_fattening_are_scanned(name, n, control, weak, monkeypatch):
    """A map that is not the base's own tag view into its own fattening, with
    its objects sent to the copy of the tag, is scanned, with the scan's
    verdict and report: a dict copy of the tag view with one kernel id
    remapped, the tag "@1" with objects sent to copy 0, the tag view over an
    equal base that is another object, and the tag view into the fattening
    of such a base."""
    F = control(name, fatten(NAMED_CROSSED[name](), n)[1])
    assert _checked_as_the_scan(F, monkeypatch) > 0
    assert is_weak_equivalence_crossed(F)[0] is weak


def test_fatten_preserves_homotopy_invariants():
    C = NAMED_CROSSED["inner-z3"]()
    fat, _ = fatten(C, 2)
    h, hf = homotopy(C), homotopy(fat)
    for x in C.objects:
        for i in range(2):
            assert len(hf.pi1[f"{x}@{i}"].reps) == len(h.pi1[x].reps)
            assert len(hf.pi2[f"{x}@{i}"]) == len(h.pi2[x])
    assert len(set(hf.pi0.values())) == len(set(h.pi0.values()))


def collapse_to_trivial(C):
    """The unique morphism to the one-object trivial crossed groupoid."""
    T = one_object_crossed(
        trivial_group(), trivial_group("2.1"), {"2.1": "1"}, lambda g, a: a
    )
    return CrossedMorphism(
        C,
        T,
        {x: "*" for x in C.objects},
        {m: "1" for m in C.g1.source},
        {a: "2.1" for a in C.g2.owner},
    )


def test_collapse_is_not_weak_equivalence():
    F = collapse_to_trivial(fix_a_core())
    assert validate_crossed_morphism(F).ok
    ok, report = is_weak_equivalence_crossed(F)
    assert not ok
    assert "pi2" in report.rules()


def test_weak_equivalence_failure_names_pi1():
    F = collapse_to_trivial(fix_b_core())
    ok, report = is_weak_equivalence_crossed(F)
    assert not ok
    assert "pi1" in report.rules()


def test_pi0_verdict_does_not_depend_on_the_hash_seed():
    """The component map is induced from the objects, not from an element
    picked out of a set, so string hashing cannot change the verdict."""
    tests = Path(__file__).resolve().parent
    # the caller's entries follow, as in `PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}`
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                         os.environ.get("PYTHONPATH")]))
    script = (
        "import json, builders\n"
        "from crossed_desc import is_weak_equivalence_crossed\n"
        "ok, report = is_weak_equivalence_crossed(builders.split_component_morphism())\n"
        "print(json.dumps([ok, report.as_json()['violations']]))\n"
    )
    verdicts = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        verdicts.append(json.loads(run.stdout))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0] == [False, [
        {"rule": "pi0", "detail": "objects of component *@0:0 land in several target components"},
        {"rule": "pi0", "detail": "induced component map is not injective"},
    ]]
