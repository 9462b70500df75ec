"""Deterministic generators of valid crossed groupoids, diagrams, and weak
equivalences used by the tests and the CLI.

Conventions: 2-morphism ids carry a "2." prefix so that object, 1-morphism and
2-morphism id sets stay disjoint within every structure, and an id never names
elements of two kinds.  Fattened ids append "@copy" markers; product ids join
components with "|".

Derived levels do not copy their base's tables.  A cover level (a power of
the base) builds only its g1: its group is a lazy product, its owner a view
that asks membership, and its twist and feedback tables are read-only views
(`crossed._View`, built by `crossed._power_tables`) that compute each entry
from the base's and list their keys in the order an eager dict would.  A
fattening builds only its g1's source, target, inverse and identity tables:
its composition table is made from the base's when something first reads it
whole, its groups, its g2 owner map, its twist and feedback tables
(`_fattened_tables`) and its inclusion's 2-morphism map all read the base,
and the inclusion is a weak equivalence by the fattening's marker, with no
homotopy computed on either side.  The builders of constant diagrams,
fattenings and identity morphisms share one object per distinct level and
map, as loading does, and a fattening fattens each distinct object once.
`power_diagram` stacks cover levels over a shape given as data (level sizes
and face maps); the Čech nerve is one, listed only after the size guard.

A fixture spec builds each named base (`NAMED_CROSSED`) once per process and
shares it, so structures built from specs must not be edited in place;
`NAMED_CROSSED[name]()` itself builds a fresh one on every call.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

from .cosimplicial import CrossedDiagram, DiagramMorphism, _once_each
from .crossed import (
    CrossedGroupoid,
    CrossedMorphism,
    DisconnectedGroupoid,
    FiniteGroup,
    _fattened_owner,
    _multiplicative_on,
    _power_tables,
    _tag_map,
    _TaggedGroup,
    _View,
    identity_crossed_morphism,
)
from .groupoid import FiniteGroupoid, _generators, _LazyTableGroupoid
from .validation import DEFAULT_BOUND, DomainError, LoadError, ResourceBoundError


# -- elementary groups --------------------------------------------------


def trivial_group(ident: str = "1") -> FiniteGroup:
    return FiniteGroup.from_table((ident,), {(ident, ident): ident}, ident, {ident: ident})


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with elements "0" .. str(n-1); identity is the 0."""
    if n < 1:
        raise DomainError("cyclic group order must be positive")
    elems = tuple(f"{i}" for i in range(n))
    table = {
        (f"{i}", f"{j}"): f"{(i + j) % n}"
        for i in range(n)
        for j in range(n)
    }
    inv = {f"{i}": f"{(-i) % n}" for i in range(n)}
    return FiniteGroup.from_table(elems, table, "0", inv)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on {0..n-1}; an element's id is its one-line notation."""
    perms = list(itertools.permutations(range(n)))
    name = {p: "".join(map(str, p)) for p in perms}
    table = {}
    inv = {}
    for p in perms:
        for q in perms:
            # mul(p, q) = p after q
            table[(name[p], name[q])] = name[tuple(p[q[i]] for i in range(n))]
        inv[name[p]] = name[tuple(sorted(range(n), key=lambda i: p[i]))]
    ident = name[tuple(range(n))]
    return FiniteGroup.from_table(tuple(name[p] for p in perms), table, ident, inv)


NAMED_GROUPS: dict[str, Callable[[], FiniteGroup]] = {
    "trivial": trivial_group,
    "z2": lambda: cyclic_group(2),
    "z3": lambda: cyclic_group(3),
    "z4": lambda: cyclic_group(4),
    "s3": lambda: symmetric_group(3),
}


# -- groupoid and crossed-groupoid builders -----------------------------


def one_object_groupoid(grp: FiniteGroup, obj: str = "*") -> FiniteGroupoid:
    """A group viewed as a groupoid with one object."""
    n = len(grp)
    if n * n > DEFAULT_BOUND:
        raise ResourceBoundError(f"{n * n} composition entries exceed the bound")
    table = {(a, b): grp.mul(a, b) for a in grp for b in grp}
    return FiniteGroupoid(
        objects=(obj,),
        source={a: obj for a in grp},
        target={a: obj for a in grp},
        identities={obj: grp.identity},
        table=table,
        inverses={a: grp.inv(a) for a in grp},
    )


def one_object_crossed(
    g1_grp: FiniteGroup,
    g2_grp: FiniteGroup,
    feedback: dict[str, str],
    twist: Callable[[str, str], str],
) -> CrossedGroupoid:
    """Assemble a one-object crossed groupoid on "*" from explicit group data."""
    if len(g1_grp) * len(g2_grp) > DEFAULT_BOUND:
        raise ResourceBoundError("twist table would exceed the size bound")
    g1 = one_object_groupoid(g1_grp)
    g2 = DisconnectedGroupoid({"*": g2_grp})
    twist_table = {(g, a): twist(g, a) for g in g1_grp for a in g2_grp}
    return CrossedGroupoid(g1, g2, twist_table, dict(feedback))


def _upper_group(G: FiniteGroup, elems) -> tuple[dict[str, str], FiniteGroup]:
    """The subgroup `elems` of G with every id "2."-prefixed, in the order of
    `elems`, and the map from an element to its prefixed id."""
    up = {a: f"2.{a}" for a in elems}
    table = {(up[a], up[b]): up[G.mul(a, b)] for a in elems for b in elems}
    inv = {up[a]: up[G.inv(a)] for a in elems}
    return up, FiniteGroup.from_table(tuple(up.values()), table, up[G.identity], inv)


def crossed_from_normal_subgroup(G: FiniteGroup, N) -> CrossedGroupoid:
    """One object; lower group G, upper group a normal subgroup N with the
    inclusion as feedback and conjugation as twist."""
    N = sorted(N)
    members = set(N)
    for x in N:
        if x not in G:
            raise DomainError(f"{x!r} is not an element of the ambient group")
    if G.identity not in members:
        raise DomainError("subgroup must contain the identity")
    for a in N:
        if G.inv(a) not in members:
            raise DomainError(f"subset is not a subgroup: inverse of {a!r} missing")
        for b in N:
            if G.mul(a, b) not in members:
                raise DomainError(f"subset is not a subgroup: {a!r} . {b!r} escapes")
    for g in G:
        for a in N:
            conj = G.mul(G.mul(g, a), G.inv(g))
            if conj not in members:
                raise DomainError(
                    f"subgroup is not normal: {g!r} . {a!r} . {g!r}^-1 escapes"
                )
    up, g2_grp = _upper_group(G, N)
    feedback = {up[a]: a for a in N}

    def twist(g: str, a2: str) -> str:
        a = a2[2:]
        return up[G.mul(G.mul(g, a), G.inv(g))]

    return one_object_crossed(G, g2_grp, feedback, twist)


def crossed_group(g2_grp_base: FiniteGroup) -> CrossedGroupoid:
    """The crossed group with trivial lower group: feedback kills everything.

    Valid exactly when the upper group is abelian; checked here.
    """
    for a in g2_grp_base:
        for b in g2_grp_base:
            if g2_grp_base.mul(a, b) != g2_grp_base.mul(b, a):
                raise DomainError(
                    "trivial feedback requires an abelian upper group "
                    f"({a!r} and {b!r} do not commute)"
                )
    up, g2_grp = _upper_group(g2_grp_base, g2_grp_base)
    g1_grp = trivial_group()
    feedback = {up[a]: g1_grp.identity for a in g2_grp_base}
    return one_object_crossed(g1_grp, g2_grp, feedback, lambda g, a: a)


# -- automorphism groups ------------------------------------------------


def _element_orders(G: FiniteGroup) -> dict[str, int]:
    orders = {}
    for a in G:
        n, cur = 1, a
        while cur != G.identity:
            cur = G.mul(cur, a)
            n += 1
        orders[a] = n
    return orders


def automorphisms(G: FiniteGroup) -> list[dict[str, str]]:
    """All group automorphisms, by backtracking over generator images.

    Each choice of images for the generating set of G (`_generators`) is
    extended along r -> r . s for every generator s, the way the scan reaches
    the group, and kept when it is a bijection that is multiplicative on the
    generators, which makes it a homomorphism.  Intended for small groups
    (|G| <= 24 or so).
    """
    orders = _element_orders(G)
    gens = _generators(G)
    steps = []  # (r . s, r, s) for every other element, r reached before it
    reached = list(gens)
    for r in reached:  # the list grows while walked: breadth-first
        for s in gens:
            rs = G.mul(r, s)
            if rs not in reached:
                reached.append(rs)
                steps.append((rs, r, s))
    by_order: dict[int, list[str]] = {}
    for a in G:
        by_order.setdefault(orders[a], []).append(a)
    results = []
    for images in itertools.product(*(sorted(by_order[orders[g]]) for g in gens)):
        phi = dict(zip(gens, images))
        for rs, r, s in steps:
            phi[rs] = G.mul(phi[r], phi[s])
        if len(set(phi.values())) == len(G) and _multiplicative_on(G, gens, phi, G.mul):
            results.append(phi)
    return results


def inner_crossed(G: FiniteGroup) -> CrossedGroupoid:
    """One object; lower group Aut(G), upper group G, feedback sends an
    element to conjugation by it, twist is evaluation."""
    auts = automorphisms(G)
    order = tuple(G.elements)
    name = {tuple(phi[e] for e in order): ",".join(phi[e] for e in order) for phi in auts}
    by_name = {name[tuple(phi[e] for e in order)]: phi for phi in auts}
    table = {}
    inv_table = {}
    for phi in auts:
        np = name[tuple(phi[e] for e in order)]
        for psi in auts:
            comp = tuple(phi[psi[e]] for e in order)  # phi after psi
            table[(np, name[tuple(psi[e] for e in order)])] = name[comp]
        inv = {phi[e]: e for e in order}
        inv_table[np] = name[tuple(inv[e] for e in order)]
    ident = name[tuple(order)]
    aut_grp = FiniteGroup.from_table(tuple(sorted(by_name)), table, ident, inv_table)

    up, g2_grp = _upper_group(G, G)
    feedback = {}
    for a in G:
        conj = tuple(G.mul(G.mul(a, e), G.inv(a)) for e in order)
        feedback[up[a]] = name[conj]

    def twist(phi_name: str, a2: str) -> str:
        return up[by_name[phi_name][a2[2:]]]

    return one_object_crossed(aut_grp, g2_grp, feedback, twist)


# -- diagram constructions ----------------------------------------------


def constant_diagram(C: CrossedGroupoid) -> CrossedDiagram:
    """All four levels C, all nine cofaces one identity object, as loading
    its document makes it."""
    identity = identity_crossed_morphism(C)
    return CrossedDiagram((C, C, C, C), {(p, k): identity for p in range(3) for k in range(p + 2)})


def _fattened_tables(C: CrossedGroupoid, n: int, parts: dict[str, tuple],
                     g1: FiniteGroupoid, g2: DisconnectedGroupoid) -> tuple[_View, _View]:
    """The twist and feedback tables of `fatten(C, n)`, whose 1-morphisms are
    the keys of `parts` (as `fatten` lists and decodes them), computed from
    C's: twist(m@i.j, b@i) = twist_C(m, b)@j and feedback(b@i) =
    feedback_C(b)@i.i.  A twist key hits only when its 2-morphism lies at its
    1-morphism's source, and a feedback key only when it is b@i for a copy
    index i and a b of C (the owner decodes ids alike), so an ill-typed key
    misses as in a dict.  Twist keys are listed by base 1-morphism, source
    copy, target copy, then element; feedback keys by base 2-morphism, then
    copy."""
    copies = [f"@{i}" for i in range(n)]
    tags = {str(i): f"@{i}.{i}" for i in range(n)}  # copy index -> "@i.i"

    def twist(key) -> str:
        g, a = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
        part = parts.get(g)
        if part is None or a not in part[1]._members:
            raise KeyError(key)
        m, _, cut, tag, _, _ = part
        return C.twist_table[(m, a[:cut])] + tag

    def twist_keys():
        for g, part in parts.items():
            yield from zip(itertools.repeat(g), part[1].elements)

    def feedback(a) -> str:
        if isinstance(a, str):
            b, at, i = a.rpartition("@")
            tag = tags.get(i) if at else None
            if tag is not None:
                return C.feedback_table[b] + tag
        raise KeyError(a)

    return (_View((C, g1, g2), twist, twist_keys,
                  lambda: sum(len(part[1]) for part in parts.values())),
            _View((C, g2), feedback, lambda: (a + c for a in C.feedback_table for c in copies),
                  lambda: len(g2.owner)))


def fatten(C: CrossedGroupoid, n: int) -> tuple[CrossedGroupoid, CrossedMorphism]:
    """Replace each object by n copies connected by transported isomorphisms.

    Returns the fattened crossed groupoid, marked `fattening = (C, n)`, and
    the inclusion of copy 0, which is a weak equivalence.  Only its g1's
    source, target, inverse and identity tables are built.  Its composition
    table is made from C's the first time something reads it whole (the
    gauge scan, a validator, the writer); until then `compose` answers
    (m2@j.k) . (m1@i.j) = (m2 . m1)@i.k from C's table, decoding each id
    through the parts map (`groupoid._LazyTableGroupoid`).  Everything else
    is a view of C: the groups are C's tagged (`_TaggedGroup`), the g2's
    owner map reads each 2-morphism's object from C's
    (`crossed._fattened_owner`, passed to `DisconnectedGroupoid(groups,
    owner)`), the twist and feedback tables compute their entries from C's
    (`_fattened_tables`), and the inclusion's 2-morphism map is the tag map
    a -> a@0 (`_tag_map`).  By that map and the marker,
    `is_weak_equivalence_crossed` knows the inclusion for a weak equivalence
    without computing the homotopy of either side.
    """
    if n < 1:
        raise DomainError("copy count must be at least 1")
    g1 = C.g1
    if (len(g1.source) * n * n) ** 2 > DEFAULT_BOUND:
        raise ResourceBoundError("fattened composition table would exceed the bound")
    copies = [f"@{i}" for i in range(n)]
    objects = {x: [x + c for c in copies] for x in g1.objects}  # x -> [x@0, x@1, ...]
    groups = {x + c: _TaggedGroup(C.g2.group(x), c) for x in g1.objects for c in copies}
    # m -> [[m@i.j for each j] for each i], in the order the ids are listed
    ids = {m: [[f"{m}{c}.{j}" for j in range(n)] for c in copies] for m in g1.source}
    # m@i.j -> (m, the group at its source, length of "@i", "@j", i, j)
    source, target, inverses, parts = {}, {}, {}, {}
    for m, rows in ids.items():
        x, y, inverse = objects[g1.source[m]], objects[g1.target[m]], ids[g1.inverses[m]]
        for i, row in enumerate(rows):
            grp, cut = groups[x[i]], -len(copies[i])
            for j, mid in enumerate(row):
                source[mid], target[mid], inverses[mid] = x[i], y[j], inverse[j][i]
                parts[mid] = (m, grp, cut, copies[j], i, j)

    def make_table() -> dict[tuple[str, str], str]:
        # transport each base composite: (m2@j.k) . (m1@i.j) = (m2 . m1)@i.k.
        # Keys go in in sorted order, which keeps the sort in serialization cheap.
        table = {}
        for m2, rows in ids.items():
            before = [(ids[m1], ids[g1.table[(m2, m1)]]) for m1 in g1.into(g1.source[m2])]
            for j, row in enumerate(rows):
                for k, after in enumerate(row):
                    for m1_ids, r_ids in before:
                        for i in range(n):
                            table[(after, m1_ids[i][j])] = r_ids[i][k]
        return table

    def compose(after: str, before: str) -> str | None:
        # after = m2@j.k and before = m1@i.j share the copy j; C's table is
        # defined exactly on its composable pairs
        h, g = parts.get(after), parts.get(before)
        if h is None or g is None or h[4] != g[5]:
            return None
        r = g1.table.get((h[0], g[0]))
        return None if r is None else ids[r][g[4]][h[5]]

    identities = {xi: ids[g1.identities[x]][i][i]
                  for x, copy_ids in objects.items() for i, xi in enumerate(copy_ids)}
    fat_g1 = _LazyTableGroupoid(tuple(itertools.chain.from_iterable(objects.values())),
                                source, target, identities, inverses, make_table, compose)
    fat_g2 = DisconnectedGroupoid(groups, _fattened_owner(C.g2, g1.objects, n, groups))

    fat = CrossedGroupoid(fat_g1, fat_g2, *_fattened_tables(C, n, parts, fat_g1, fat_g2))
    fat.fattening = (C, n)

    inclusion = CrossedMorphism(
        C,
        fat,
        {x: copy_ids[0] for x, copy_ids in objects.items()},
        {m: rows[0][0] for m, rows in ids.items()},
        _tag_map(C, "@0"),
    )
    return fat, inclusion


def fatten_diagram(D: CrossedDiagram, n: int) -> tuple[CrossedDiagram, DiagramMorphism]:
    """Fatten every level compatibly; returns the inclusion of copy 0.

    Each distinct level and coface object is fattened once, so positions
    that share an object (as in a constant diagram) share its fattening, as
    loading the fattened document makes them."""
    fattened = {}  # id of a level -> (its fattening, the inclusion)
    levels = tuple(fat for fat, _ in _once_each(lambda L: fatten(L, n), D.levels, fattened))
    copies = [f"@{i}" for i in range(n)]
    pairs = [f"@{i}.{j}" for i in range(n) for j in range(n)]

    def fatten_map(d: CrossedMorphism) -> CrossedMorphism:
        # each map sends a tagged id to its image tagged alike
        maps = [{a + c: b + c for a, b in zip(ids, map(image, ids)) for c in tags}
                for image, ids, tags in ((d.apply_obj, d.source.g1.objects, copies),
                                         (d.apply_mor1, d.source.g1.source, pairs),
                                         (d.apply_mor2, d.source.g2.owner, copies))]
        return CrossedMorphism(fattened[id(d.source)][0], fattened[id(d.target)][0], *maps)

    fat = CrossedDiagram(levels, dict(zip(D.cofaces, _once_each(fatten_map, D.cofaces.values()))))
    return fat, DiagramMorphism(D, fat, tuple(fattened[id(L)][1] for L in D.levels))


def _power_level(C: CrossedGroupoid, k: int) -> CrossedGroupoid:
    """The k-fold power of the one-object crossed group C, marked
    `power = (C, k)`: its g1 and group are built as `FiniteGroup.product` of
    k copies of C's, and its twist and feedback tables are views of C's
    (`_power_tables`).  The group lists nothing until iterated (`homotopy`
    scans it, so taking the level's homotopy lists it), and the g2 owner is
    a view that asks membership in it.  The caller bounds k first."""
    (obj,) = C.objects
    g1_grp = FiniteGroup.product(
        [FiniteGroup(C.g1.morphisms, C.g1.identity(obj), C.g1.compose, C.g1.inverse)] * k)
    grp = FiniteGroup.product([C.g2.group(obj)] * k)
    g1 = one_object_groupoid(g1_grp, obj)

    def owner(a) -> str:
        if a in grp:
            return obj
        raise KeyError(a)

    g2 = DisconnectedGroupoid(
        {obj: grp}, _View((grp,), owner, lambda: iter(grp.elements), grp.__len__))
    level = CrossedGroupoid(g1, g2, *_power_tables(C, g1, grp))
    level.power = (C, k)
    return level


def power_diagram(C: CrossedGroupoid, sizes: list[int], faces: Callable) -> CrossedDiagram:
    """Powers of a one-object crossed group C over a 3-truncated
    semi-simplicial set given as data: level p is the `sizes[p]`-fold power
    (`_power_level`), and coface (p, k) sends coordinate u of level p+1 to
    coordinate `faces(p, k)[u]` of level p.  The guard reads `sizes` alone,
    before `faces` is called or any level is built."""
    if len(C.objects) != 1:
        raise DomainError("the Čech construction needs a one-object crossed group")
    if min(sizes) < 1:
        raise DomainError("cover size must be at least 1")
    obj = C.objects[0]

    # level p's ids have k parts; no power is taken with k over the bound
    for p, k in enumerate(sizes):
        if (k > DEFAULT_BOUND or len(C.g2.group(obj)) ** k > DEFAULT_BOUND
                or (len(C.g1.source) ** k) ** 2 > DEFAULT_BOUND):
            raise ResourceBoundError(f"Čech level {p} exceeds the size bound")

    levels = tuple(_power_level(C, k) for k in sizes)

    def reindex(x: str, positions: list[int]) -> str:
        parts = x.split("|")
        return "|".join([parts[i] for i in positions])

    cofaces = {}
    for p in range(3):
        for k in range(p + 2):
            positions = faces(p, k)
            mor1_map = {g: reindex(g, positions) for g in levels[p].g1.source}
            mor2_map = {a: reindex(a, positions) for a in levels[p].g2.owner}
            cofaces[(p, k)] = CrossedMorphism(
                levels[p], levels[p + 1], {obj: obj}, mor1_map, mor2_map
            )
    return CrossedDiagram(levels, cofaces)


def cech_diagram(C: CrossedGroupoid, m: int) -> CrossedDiagram:
    """The Čech diagram of a one-object crossed group over an abstract cover
    with m indices: `power_diagram` over the nerve whose p-simplices are the
    sorted (p+1)-tuples of indices, face k omitting place k.  The cofaces
    list levels 0-2 only; level 3 (65,536 2-morphisms for fix-a-core over 2
    indices) stays unlisted, unless something takes its homotopy."""
    nerve = functools.cache(lambda p: sorted(itertools.product(range(m), repeat=p + 1)))

    def faces(p: int, k: int) -> list[int]:
        position = {u: i for i, u in enumerate(nerve(p))}
        return [position[u[:k] + u[k + 1:]] for u in nerve(p + 1)]

    return power_diagram(C, [m ** (p + 1) for p in range(4)], faces)


# -- named fixtures -----------------------------------------------------


def fix_a_core() -> CrossedGroupoid:
    """Trivial lower group, upper group Z/2, everything else trivial."""
    return crossed_group(cyclic_group(2))


def fix_b_core() -> CrossedGroupoid:
    """Lower group Z/2, trivial upper group."""
    g1 = cyclic_group(2)
    g2 = FiniteGroup.from_table(("2.1",), {("2.1", "2.1"): "2.1"}, "2.1", {"2.1": "2.1"})
    return one_object_crossed(g1, g2, {"2.1": g1.identity}, lambda g, a: a)


def fix_c_core() -> CrossedGroupoid:
    """The identity crossed module on Z/2."""
    return crossed_from_normal_subgroup(cyclic_group(2), cyclic_group(2).elements)


def fix_a() -> CrossedDiagram:
    return constant_diagram(fix_a_core())


def fix_b() -> CrossedDiagram:
    return constant_diagram(fix_b_core())


def fix_c() -> CrossedDiagram:
    return constant_diagram(fix_c_core())


def fix_cech(m: int = 2) -> CrossedDiagram:
    """Čech diagram of the crossed group (Z/2 over a trivial lower group)."""
    return cech_diagram(fix_a_core(), m)


NAMED_CROSSED: dict[str, Callable[[], CrossedGroupoid]] = {
    "fix-a-core": fix_a_core,
    "fix-b-core": fix_b_core,
    "fix-c-core": fix_c_core,
    "inner-s3": lambda: inner_crossed(symmetric_group(3)),
    "inner-z3": lambda: inner_crossed(cyclic_group(3)),
    "s3-a3": lambda: crossed_from_normal_subgroup(
        symmetric_group(3), [p for p in symmetric_group(3) if _is_even(p)]
    ),
}


def _is_even(perm: str) -> bool:
    p = [int(ch) for ch in perm]
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return inversions % 2 == 0


# -- fixture specs (CLI-facing) -----------------------------------------


@dataclass
class FixtureSpec:
    """A declarative recipe for one of the generator families."""

    kind: str
    params: dict = field(default_factory=dict)


def fixture_spec_from_json(d) -> FixtureSpec:
    """A spec object {"kind": ..., "params": {...}}, a document's payload or
    nested as a base; a key other than those two is refused."""
    if not isinstance(d, dict) or "kind" not in d:
        raise LoadError("fixture-spec payload is missing 'kind'")
    params = d.get("params", {})
    if not isinstance(params, dict):
        raise LoadError("fixture-spec payload 'params' is not a JSON object")
    for key in d:
        if key not in ("kind", "params"):
            raise LoadError(f"unknown fixture-spec key {key!r}")
    return FixtureSpec(d["kind"], params)


def build_fixture(spec: FixtureSpec):
    """Build a fixture; returns ("crossed", C), ("diagram", D) or
    ("diagram-morphism", F) depending on the kind.

    Parameters of the wrong shape or type, and specs nested too deeply to
    build, raise LoadError.
    """
    try:
        return _build(spec.kind, spec.params)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise LoadError(
            f"malformed {spec.kind!r} fixture params: {type(exc).__name__}: {exc}"
        ) from None
    except RecursionError:
        raise LoadError("fixture spec nests too deeply") from None


# the params each kind reads; a spec naming another is refused
_PARAMS = {
    "normal-subgroup": ("group", "subgroup"),
    "inner": ("group",),
    "constant-diagram": ("base",),
    "fatten": ("base", "copies"),
    "cech": ("base", "cover"),
}


def _build(kind: str, p: dict):
    reads = _PARAMS.get(kind) if isinstance(kind, str) else None
    if reads is None:
        raise LoadError(f"unknown fixture kind {kind!r}")
    if isinstance(p, dict):
        for key in p:
            if key not in reads:
                raise LoadError(f"unknown {kind!r} fixture parameter {key!r}")
    if kind == "normal-subgroup":
        G = _resolve_group(p["group"])
        N = p["subgroup"]
        if not isinstance(N, list) or not all(isinstance(a, str) for a in N):
            raise LoadError("'normal-subgroup' fixture parameter 'subgroup' "
                            "is not a JSON array of strings")
        return "crossed", crossed_from_normal_subgroup(G, N)
    if kind == "inner":
        return "crossed", inner_crossed(_resolve_group(p["group"]))
    if kind == "constant-diagram":
        return "diagram", constant_diagram(_resolve_crossed(p["base"]))
    if kind == "fatten":
        n = _count(p, "copies", 2)
        base_kind, base = _resolve_base(p["base"])
        if base_kind == "diagram":
            return "diagram-morphism", fatten_diagram(base, n)[1]
        if base_kind != "crossed":
            raise LoadError("nested fixture does not produce a crossed groupoid or a diagram")
        return "crossed", fatten(base, n)[0]
    base = _resolve_crossed(p["base"])  # kind "cech"
    return "diagram", cech_diagram(base, _count(p, "cover", 2))


def _count(p: dict, key: str, default: int) -> int:
    """The integer parameter `key`; a bool, float or string is not coerced."""
    value = p.get(key, default)
    if type(value) is not int:
        raise TypeError(f"{key!r} must be an integer, not {value!r}")
    return value


def _resolve_group(ref) -> FiniteGroup:
    if isinstance(ref, str):
        try:
            return NAMED_GROUPS[ref]()
        except KeyError:
            raise LoadError(f"unknown group name {ref!r}") from None
    raise LoadError("group reference must be a name")


@functools.cache
def _named_base(name: str) -> CrossedGroupoid:
    """`NAMED_CROSSED[name]()`, built on the first call for each name and
    kept: every spec over the name shares it, and what is built over it
    must not be edited in place."""
    return NAMED_CROSSED[name]()


def _resolve_crossed(ref) -> CrossedGroupoid:
    if isinstance(ref, str):
        try:
            return _named_base(ref)
        except KeyError:
            raise LoadError(f"unknown crossed-groupoid name {ref!r}") from None
    if isinstance(ref, dict):
        kind, built = build_fixture(fixture_spec_from_json(ref))
        if kind != "crossed":
            raise LoadError("nested fixture does not produce a crossed groupoid")
        return built
    raise LoadError("crossed-groupoid reference must be a name or a nested spec")


def _resolve_base(ref):
    if isinstance(ref, str) and ref in NAMED_CROSSED:
        return "crossed", _named_base(ref)
    if isinstance(ref, dict):
        return build_fixture(fixture_spec_from_json(ref))
    raise LoadError("fatten base must be a named crossed groupoid or a nested spec")
