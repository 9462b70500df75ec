"""Structures the fixture generators do not make, built for the tests."""

from __future__ import annotations

from crossed_desc import (
    CrossedDiagram,
    CrossedGroupoid,
    CrossedMorphism,
    DisconnectedGroupoid,
    FiniteGroup,
    FiniteGroupoid,
    fatten,
)
from crossed_desc.fixtures import (
    NAMED_CROSSED,
    _power_level,
    crossed_from_normal_subgroup,
    crossed_group,
    cyclic_group,
    fix_c_core,
    one_object_crossed,
    trivial_group,
)


def _tag(e: str, i: int) -> str:
    return f"{e}:{i}"


def disjoint_union_groupoid(*parts: FiniteGroupoid) -> FiniteGroupoid:
    """The disjoint union of groupoids, tables copied as they are (valid or
    not); every id of part i (objects and morphisms) is suffixed with ":i"."""
    objects, source, target, identities, table, inverses = [], {}, {}, {}, {}, {}
    for i, G in enumerate(parts):
        objects += (_tag(x, i) for x in G.objects)
        for m in G.source:
            source[_tag(m, i)] = _tag(G.source[m], i)
            target[_tag(m, i)] = _tag(G.target[m], i)
            inverses[_tag(m, i)] = _tag(G.inverses[m], i)
        for x in G.objects:
            identities[_tag(x, i)] = _tag(G.identities[x], i)
        for (h, g), r in G.table.items():
            table[(_tag(h, i), _tag(g, i))] = _tag(r, i)
    return FiniteGroupoid(tuple(objects), source, target, identities, table, inverses)


def disjoint_union(*parts: CrossedGroupoid) -> CrossedGroupoid:
    """The disjoint union of crossed groupoids; every id of part i (objects,
    1-morphisms and 2-morphisms) is suffixed with ":i"."""
    groups, twist, feedback = {}, {}, {}
    for i, C in enumerate(parts):
        def tag(e: str, _i=i) -> str:
            return _tag(e, _i)

        for x in C.g1.objects:
            grp = C.g2.group(x)
            groups[tag(x)] = FiniteGroup.from_table(
                map(tag, grp.elements),
                {(tag(a), tag(b)): tag(grp.mul(a, b)) for a in grp for b in grp},
                tag(grp.identity),
                {tag(a): tag(grp.inv(a)) for a in grp},
            )
        for (g, a), r in C.twist_table.items():
            twist[(tag(g), tag(a))] = tag(r)
        for a, d in C.feedback_table.items():
            feedback[tag(a)] = tag(d)
    g1 = disjoint_union_groupoid(*(C.g1 for C in parts))
    return CrossedGroupoid(g1, DisconnectedGroupoid(groups), twist, feedback)


def loop5() -> FiniteGroupoid:
    """The order-5 loop with identity 0 and x . x = 0 as a one-object
    groupoid: units and inverses hold, associativity does not (a group with
    x . x = 1 throughout has order a power of 2)."""
    rows = ("01234", "10342", "24013", "32401", "43120")  # compose(h, g) = rows[h][g]
    ids = tuple(rows[0])
    return FiniteGroupoid(
        objects=("*",),
        source={m: "*" for m in ids},
        target={m: "*" for m in ids},
        identities={"*": "0"},
        table={(h, g): rows[int(h)][int(g)] for h in ids for g in ids},
        inverses={m: m for m in ids},
    )


def point() -> CrossedGroupoid:
    """The one-object crossed groupoid with trivial groups."""
    return one_object_crossed(
        trivial_group(), trivial_group("2.1"), {"2.1": "1"}, lambda g, a: a
    )


def split_component_morphism() -> CrossedMorphism:
    """A map that is not functorial on objects: the two isomorphic objects of
    one source component go to the two components of the target, and the
    third source object to the second of them.  Every other invariant holds."""
    S = disjoint_union(fatten(point(), 2)[0], point())
    T = disjoint_union(point(), point())
    obj = {"*@0:0": "*:0", "*@1:0": "*:1", "*:1": "*:1"}
    return CrossedMorphism(
        S,
        T,
        obj,
        {m: T.g1.identity(obj[S.g1.src(m)]) for m in S.g1.source},
        {a: T.g2.identity(obj[S.g2.object_of(a)]) for a in S.g2.owner},
    )


def with_coface_entry(D: CrossedDiagram, key, kind: str, element: str, image: str) -> CrossedDiagram:
    """D with one entry of coface `key`'s 1- or 2-morphism map (`kind` "mor1"
    or "mor2") sent to `image`."""
    d = D.cofaces[key]
    maps = {"mor1": dict(d.mor1_map), "mor2": dict(d.mor2_map)}
    maps[kind][element] = image
    cofaces = dict(D.cofaces)
    cofaces[key] = CrossedMorphism(d.source, d.target, d.obj_map, maps["mor1"], maps["mor2"])
    return CrossedDiagram(D.levels, cofaces)


def renamed_group(G: FiniteGroup, names: dict[str, str]) -> FiniteGroup:
    """G with every element id e renamed names[e]."""
    return FiniteGroup.from_table(
        (names[a] for a in G),
        {(names[a], names[b]): names[G.mul(a, b)] for a in G for b in G},
        names[G.identity],
        {names[a]: names[G.inv(a)] for a in G},
    )


def _prefix_z4() -> FiniteGroup:
    # fattening tags these ids into one another's prefixes, and the tag
    # reorders them: "a" < "a0" but "a@0" > "a0@0"
    return renamed_group(cyclic_group(4), dict(zip("0123", ("a", "a0", "a@0", "a0@0"))))


# Valid bases whose ids contain "@" or are prefixes of one another, so a
# fattening of them is read and sorted with ids that look like its own.
ODD_ID_BASES = {
    "prefix-kernel": lambda: crossed_group(_prefix_z4()),
    "prefix-g1": lambda: crossed_from_normal_subgroup(_prefix_z4(), _prefix_z4().elements),
    "fattened": lambda: fatten(fix_c_core(), 2)[0],
    "union": lambda: disjoint_union(crossed_group(_prefix_z4()), fatten(fix_c_core(), 2)[0]),
}


def _prefix_quotient():
    # Z/4 -> Z/2 by reduction mod 2, acting trivially: the kernel {a, a@0} is
    # proper, and the ids of its powers sort apart from their product order
    z4 = _prefix_z4()
    return one_object_crossed(cyclic_group(2), z4, dict(zip(z4.elements, "0101")),
                              lambda g, a: a)


# One-object bases with the exponents k of their powers that the tests build:
# fix-a-core's are the levels of its Čech covers 1 and 2, the other named
# bases' include their cover-1 levels (k = 1), and the rest have odd ids, a
# proper kernel ("prefix-quotient") or view tables of their own ("fattened once").
POWER_BASES = {
    "fix-a-core": (NAMED_CROSSED["fix-a-core"], (1, 2, 4, 8, 16)),
    "fix-b-core": (NAMED_CROSSED["fix-b-core"], (1, 2, 4)),
    "fix-c-core": (NAMED_CROSSED["fix-c-core"], (1, 2, 4)),
    "prefix-kernel": (ODD_ID_BASES["prefix-kernel"], (1, 2, 3)),
    "prefix-g1": (ODD_ID_BASES["prefix-g1"], (1, 2, 3)),
    "prefix-quotient": (_prefix_quotient, (1, 2, 3)),
    "fattened once": (lambda: fatten(fix_c_core(), 1)[0], (1, 2, 3)),
}


def _power(name: str, k: int):
    make = POWER_BASES[name][0]
    return lambda: _power_level(make(), k)


# Bases of the fattenings that the view tests compare with the eager oracle
# (`oracles.relabeled_fattening`): the named bases, the odd-id bases, and
# the power bases with their powers of exponent 2 ("|"-joined ids).
FATTENING_BASES = {
    **NAMED_CROSSED,
    **ODD_ID_BASES,
    **{name: make for name, (make, _) in POWER_BASES.items()},
    **{f"{name}^2": _power(name, 2) for name, (_, ks) in POWER_BASES.items() if 2 in ks},
}
