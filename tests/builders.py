"""Structures the fixture generators do not make, built for the tests."""

from __future__ import annotations

from crossed_desc import (
    CrossedGroupoid,
    CrossedMorphism,
    DisconnectedGroupoid,
    FiniteGroup,
    FiniteGroupoid,
    fatten,
)
from crossed_desc.fixtures import one_object_crossed, trivial_group


def disjoint_union(*parts: CrossedGroupoid) -> CrossedGroupoid:
    """The disjoint union of crossed groupoids; every id of part i (objects,
    1-morphisms and 2-morphisms) is suffixed with ":i"."""
    objects, source, target, identities, table, inverses = [], {}, {}, {}, {}, {}
    groups, twist, feedback = {}, {}, {}
    for i, C in enumerate(parts):
        def tag(e: str, _i=i) -> str:
            return f"{e}:{_i}"

        g1 = C.g1
        objects += map(tag, g1.objects)
        for m in g1.source:
            source[tag(m)] = tag(g1.source[m])
            target[tag(m)] = tag(g1.target[m])
            inverses[tag(m)] = tag(g1.inverses[m])
        for x in g1.objects:
            identities[tag(x)] = tag(g1.identities[x])
        for (h, g), r in g1.table.items():
            table[(tag(h), tag(g))] = tag(r)
        for x in g1.objects:
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
    g1 = FiniteGroupoid(tuple(objects), source, target, identities, table, inverses)
    return CrossedGroupoid(g1, DisconnectedGroupoid(groups), twist, feedback)


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
