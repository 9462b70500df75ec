"""Independent brute-force oracles for the test suite.

Everything here is deliberately written against the raw tables, without using
the library's face maps, `compose_all`, completion, or class machinery, so
that agreement between the two is meaningful.  A face is applied as an
explicit chain of cofaces (`push_desc`), composed in a *different* order
(largest skipped vertex first) than `CrossedDiagram.face` composes them.  The
exceptions are former routines of the library, kept verbatim to pin the
current ones to their exact output: `bfs_gauge_classes`, the breadth-first
search over every gauge edge, `scan_gauge_classes`, the orbit scan that
evaluated every candidate through the checked accessors,
`checked_descent_data`, the enumeration that sent every candidate through
`is_descent_datum`, `pairwise_automorphisms`, the automorphism search that
checked every pair, and the validators' walks over every pair or triple of
each law that the library now proves on a generating set (the `brute_*`
and `walked_*` functions), the diagram loaders that built every level
and map from its own payload (`unshared_*`), the fattening's eagerly
relabeled groups, owner and inclusion (`relabeled_fattening`), and the
weak-equivalence check that scanned every pi2 list
(`scanned_weak_equivalence`), the one-line canonical JSON writer
(`json_dumps_canonical`), the document parser that decoded every byte with
`json.loads` (`json_parse_document`), the product group that listed
every element and its member set when it was built (`eager_product`), and
the fattened g1 whose composition table was built with it
(`eager_fattened_g1`), and the Čech diagram that listed its nerve inside
its level and coface loops (`looped_cech_diagram`).
"""

from __future__ import annotations

import itertools
import json

from crossed_desc.descent import (
    ClassTable,
    CrossedDescError,
    CrossedDiagram,
    DescentDatum,
    GaugeTransformation,
    ResourceBoundError,
    _predicted_a,
    _predicted_g,
    enumerate_descent,
    gauge_compose,
    gauge_identity,
    gauge_invert,
    is_descent_datum,
    is_gauge,
    vertex_object,
)
from crossed_desc.cosimplicial import DiagramMorphism
from crossed_desc.crossed import (
    CrossedGroupoid,
    CrossedMorphism,
    DisconnectedGroupoid,
    FiniteGroup,
    homotopy,
)
from crossed_desc.fixtures import _element_orders, _power_level, one_object_groupoid
from crossed_desc.groupoid import FiniteGroupoid, _generators
from crossed_desc.serialize import (
    _PARSERS,
    FORMAT_VERSION,
    _maps_from_json,
    _object,
    _require,
    crossed_from_json,
)
from crossed_desc.validation import DEFAULT_BOUND, DomainError, LoadError, ValidationReport


# What `FiniteGroup.product` was before products became lazy, kept verbatim
# (only `cls` is spelled out): the lazy product must answer as this does.
def eager_product(factors: list["FiniteGroup"]) -> "FiniteGroup":
    """Direct product; element ids are factor ids joined by "|".

    Operations are coordinatewise, and the factors are kept in `factors`.
    """
    for f in factors:
        for e in f.elements:
            if "|" in e:
                raise LoadError(f"factor element id {e!r} contains separator '|'")
    elements = tuple(map("|".join, itertools.product(*(f.elements for f in factors))))
    identity = "|".join(f.identity for f in factors)

    # `mul` and `inv` pass only elements, so each id has one part per factor
    def mul(a: str, b: str) -> str:
        pairs = zip(factors, a.split("|"), b.split("|"))
        return "|".join(f._mul(x, y) for f, x, y in pairs)

    def inv(a: str) -> str:
        return "|".join(f._inv(x) for f, x in zip(factors, a.split("|")))

    g = FiniteGroup(elements, identity, mul, inv)
    g.factors = tuple(factors)
    return g


# What `serialize.dumps_canonical` was before it became a recursive writer,
# kept verbatim (only renamed): the library's writer must give exactly these
# bytes.
def json_dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# What `serialize.parse_document` was before it decoded each repeated level
# and coface text once, kept verbatim (only renamed): `json.loads` decodes
# every byte, then the same payload readers run.  The library's parser must
# return what this returns and raise what this raises.
def json_parse_document(text: str) -> tuple[str, object]:
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except RecursionError:
        raise LoadError("document nests too deeply") from None
    if not isinstance(doc, dict):
        raise LoadError("document is not a JSON object")
    if doc.get("formatVersion") != FORMAT_VERSION:
        raise LoadError(f"unrecognized format version {doc.get('formatVersion')!r}")
    kind = doc.get("kind")
    if kind not in _PARSERS:
        raise LoadError(f"unknown document kind {kind!r}")
    payload = doc.get("payload")
    if payload is None:
        raise LoadError("document has no payload")
    try:
        return kind, _PARSERS[kind](payload)
    except (TypeError, AttributeError, KeyError, IndexError, ValueError) as exc:
        raise LoadError(f"malformed {kind} payload: {exc}") from None


def _skipped(seq, q):
    return sorted(set(range(q + 1)) - set(seq), reverse=True)


def push_desc(D, p, q, seq, e, kind):
    """The image of `e` under the face `seq` (level p -> level q), applying
    the cofaces for the skipped vertices, largest first.

    When vertex k (in the final q-simplex) is inserted last among the larger
    ones, the coface index at an intermediate stage equals k minus the number
    of not-yet-inserted smaller skipped vertices.
    """
    skipped = _skipped(seq, q)  # descending
    cur = e
    dim = p
    for pos, k in enumerate(skipped):
        below = sum(1 for s in skipped[pos + 1:] if s < k)
        idx = k - below
        d = D.cofaces[(dim, idx)]
        if kind == "obj":
            cur = d.apply_obj(cur)
        elif kind == "mor1":
            cur = d.apply_mor1(cur)
        else:
            cur = d.apply_mor2(cur)
        dim += 1
    return cur


def brute_descent_data(D):
    """All (x, g, a) satisfying both descent conditions, checked from raw
    tables with descending-order pushforwards."""
    L0, L1, L2, L3 = D.levels
    out = []
    for x in sorted(L0.g1.objects):
        x0 = push_desc(D, 0, 1, (0,), x, "obj")
        x1 = push_desc(D, 0, 1, (1,), x, "obj")
        gs = sorted(
            m
            for m in L1.g1.source
            if L1.g1.source[m] == x0 and L1.g1.target[m] == x1
        )
        x0_2 = push_desc(D, 0, 2, (0,), x, "obj")
        cells = sorted(L2.g2.group(x0_2).elements)
        for g in gs:
            g01 = push_desc(D, 1, 2, (0, 1), g, "mor1")
            g02 = push_desc(D, 1, 2, (0, 2), g, "mor1")
            g12 = push_desc(D, 1, 2, (1, 2), g, "mor1")
            lhs1 = L2.g1.table[
                (L2.g1.table[(L2.g1.inverses[g02], g12)], g01)
            ]
            g01_3 = push_desc(D, 1, 3, (0, 1), g, "mor1")
            for a in cells:
                if L2.feedback_table[a] != lhs1:
                    continue
                a012 = push_desc(D, 2, 3, (0, 1, 2), a, "mor2")
                a013 = push_desc(D, 2, 3, (0, 1, 3), a, "mor2")
                a023 = push_desc(D, 2, 3, (0, 2, 3), a, "mor2")
                a123 = push_desc(D, 2, 3, (1, 2, 3), a, "mor2")
                grp = L3.g2
                lhs2 = grp.mul(grp.mul(grp.inv(a013), a023), a012)
                rhs2 = L3.twist_table[(L3.g1.inverses[g01_3], a123)]
                if lhs2 == rhs2:
                    out.append((x, g, a))
    return out


# The enumeration that `enumerate_descent` ran before it stopped sending its
# candidates through the typing checks, kept verbatim (only renamed): every
# candidate goes through `is_descent_datum`, so the library must return its
# list, in order, or raise its error, on valid and on corrupted input alike.
def checked_descent_data(
    D: CrossedDiagram, bound: int = DEFAULT_BOUND
) -> list[DescentDatum]:
    """All descent data, in lexicographic (x, g, a) order."""
    total = 0
    plan = []
    for x in sorted(D.levels[0].objects):
        x0, x1 = vertex_object(D, x, 0, 1), vertex_object(D, x, 1, 1)
        homset = D.levels[1].g1.hom(x0, x1)
        x0_2 = vertex_object(D, x, 0, 2)
        cells = D.levels[2].g2.group(x0_2).elements
        total += len(homset) * len(cells)
        plan.append((x, homset, cells))
    if total > bound:
        raise ResourceBoundError(
            f"{total} candidate triples exceed the bound of {bound}"
        )
    out = []
    for x, homset, cells in plan:
        for g in homset:
            for a in sorted(cells):
                t = DescentDatum(x, g, a)
                ok, _ = is_descent_datum(D, t)
                if ok:
                    out.append(t)
    return out


def brute_gauge_related(D, s, d):
    """Whether two triples are related by some gauge pair, by exhaustive scan
    over all typed (f, c), checking both gauge equations from raw tables."""
    sx, sg, sa = s
    dx, dg, da = d
    L0, L1, L2 = D.levels[0], D.levels[1], D.levels[2]
    fs = [
        m
        for m in sorted(L0.g1.source)
        if L0.g1.source[m] == sx and L0.g1.target[m] == dx
    ]
    x0 = push_desc(D, 0, 1, (0,), sx, "obj")
    cs = sorted(L1.g2.group(x0).elements)
    for f in fs:
        f0 = push_desc(D, 0, 1, (0,), f, "mor1")
        f1 = push_desc(D, 0, 1, (1,), f, "mor1")
        f0_2 = push_desc(D, 0, 2, (0,), f, "mor1")
        for c in cs:
            pred_g = L1.g1.table[
                (
                    L1.g1.table[(L1.g1.table[(f1, sg)], L1.feedback_table[c])],
                    L1.g1.inverses[f0],
                )
            ]
            if pred_g != dg:
                continue
            grp = L2.g2
            g01 = push_desc(D, 1, 2, (0, 1), sg, "mor1")
            c01 = push_desc(D, 1, 2, (0, 1), c, "mor2")
            c02 = push_desc(D, 1, 2, (0, 2), c, "mor2")
            c12 = push_desc(D, 1, 2, (1, 2), c, "mor2")
            inner = grp.mul(
                grp.mul(
                    grp.mul(grp.inv(c02), sa),
                    L2.twist_table[(L2.g1.inverses[g01], c12)],
                ),
                c01,
            )
            if L2.twist_table[(f0_2, inner)] == da:
                return True
    return False


def brute_gauge_classes(D, data=None):
    """Partition of the descent data into gauge classes by pairwise scans."""
    data = brute_descent_data(D) if data is None else list(data)
    unassigned = list(data)
    classes = []
    while unassigned:
        seed = unassigned.pop(0)
        block = [seed]
        rest = []
        for other in unassigned:
            if any(
                brute_gauge_related(D, member, other)
                for member in block
            ):
                block.append(other)
            else:
                rest.append(other)
        # one sweep may miss chains; iterate until stable
        changed = True
        while changed:
            changed = False
            still = []
            for other in rest:
                if any(brute_gauge_related(D, member, other) for member in block):
                    block.append(other)
                    changed = True
                else:
                    still.append(other)
            rest = still
        classes.append(sorted(block))
        unassigned = rest
    return sorted(classes)


def _raw_hom(L, x, y):
    return sorted(m for m in L.g1.source if L.g1.source[m] == x and L.g1.target[m] == y)


def least_lift_choices(F, trace):
    """The least solution of each search step of a lift, walked over sorted
    candidates of the raw tables, for the values the trace records before
    that step.  Keyed by the trace fields a step chooses: (x, f), (g, c_p)
    and (a,) of a surjectivity trace, (e, v), (d_p,) and (v2,) of an
    injectivity trace; a step without a solution maps to None."""
    G, H = F.source, F.target
    d = trace.data
    F0, F1, F2 = (F.levels[p] for p in range(3))
    if trace.kind == "surjectivity":
        H0, H1 = H.levels[0], H.levels[1]
        G2 = G.levels[2]
        y, x, g = d["target"].x, d["x"], d["g"]
        xf = next(((x, f) for x in sorted(G.levels[0].g1.objects)
                   for f in _raw_hom(H0, y, F0.obj_map[x])), None)
        x0 = push_desc(G, 0, 1, (0,), x, "obj")
        x1 = push_desc(G, 0, 1, (1,), x, "obj")
        yp0 = push_desc(H, 0, 1, (0,), F0.obj_map[x], "obj")
        gc = next(((g, c) for g in _raw_hom(G.levels[1], x0, x1)
                   for c in sorted(H1.g2.group(yp0).elements)
                   if H1.g1.table[(F1.mor1_map[g], H1.feedback_table[c])] == d["h_pp"]), None)
        g01, g02, g12 = (push_desc(G, 1, 2, seq, g, "mor1") for seq in ((0, 1), (0, 2), (1, 2)))
        want = G2.g1.table[(G2.g1.table[(G2.g1.inverses[g02], g12)], g01)]
        cells = sorted(G2.g2.group(push_desc(G, 0, 2, (0,), x, "obj")).elements)
        a = next(((a,) for a in cells
                  if G2.feedback_table[a] == want and F2.mor2_map[a] == d["b_p"]), None)
        return {("x", "f"): xf, ("g", "c_p"): gc, ("a",): a}
    src, dst, t, e = d["src"], d["dst"], d["input"], d["e"]
    H0 = H.levels[0]
    G1 = G.levels[1]
    ev = next(((e, v) for e in _raw_hom(G.levels[0], src.x, dst.x)
               for v in sorted(H0.g2.group(F0.obj_map[src.x]).elements)
               if F0.mor1_map[e] == H0.g1.table[(t.f, H0.feedback_table[v])]), None)
    e0 = push_desc(G, 0, 1, (0,), e, "mor1")
    e1 = push_desc(G, 0, 1, (1,), e, "mor1")
    inv, table = G1.g1.inverses, G1.g1.table
    want = table[(table[(table[(inv[src.g], inv[e1])], dst.g)], e0)]
    x0 = push_desc(G, 0, 1, (0,), src.x, "obj")
    cells = sorted(G1.g2.group(x0).elements)
    d_p = next(((c,) for c in cells if G1.feedback_table[c] == want), None)
    one = G1.g1.identities[x0]
    v2 = next(((c,) for c in cells
               if G1.feedback_table[c] == one and F1.mor2_map[c] == d["w"]), None)
    return {("e", "v"): ev, ("d_p",): d_p, ("v2",): v2}


def cech_two_cocycle_count(m: int, values: int = 2):
    """Cocycle and coboundary counts for the abelian Čech complex of Z/`values`
    over an abstract m-index cover, degrees 1-2, via exhaustive search.

    Returns (n_cocycles, n_coboundaries); descent data of the corresponding
    diagram should number n_cocycles and fall into n_cocycles/n_coboundaries
    classes only when every cocycle is a coboundary shift; the FixC-hat count
    cross-check uses n_cocycles and n_coboundaries directly.
    """
    pairs = list(itertools.product(range(m), repeat=3))  # 2-cochain support
    ones = list(itertools.product(range(m), repeat=2))  # 1-cochain support
    quads = list(itertools.product(range(m), repeat=4))
    n_cocycles = 0
    cocycles = []
    for vals in itertools.product(range(values), repeat=len(pairs)):
        w = dict(zip(pairs, vals))
        # d(w)(i,j,k,l) = w(j,k,l) - w(i,k,l) + w(i,j,l) - w(i,j,k)
        if all(
            (w[(j, k, l)] - w[(i, k, l)] + w[(i, j, l)] - w[(i, j, k)]) % values == 0
            for (i, j, k, l) in quads
        ):
            n_cocycles += 1
            cocycles.append(vals)
    coboundaries = set()
    for vals in itertools.product(range(values), repeat=len(ones)):
        u = dict(zip(ones, vals))
        db = tuple(
            (u[(j, k)] - u[(i, k)] + u[(i, j)]) % values for (i, j, k) in pairs
        )
        coboundaries.add(db)
    return n_cocycles, len(coboundaries)


def brute_automorphisms(G):
    """Every bijection of G fixing the identity that is a homomorphism,
    checked against the raw multiplication."""
    rest = [e for e in G.elements if e != G.identity]
    out = []
    for images in itertools.permutations(rest):
        phi = {G.identity: G.identity, **dict(zip(rest, images))}
        if all(phi[G.mul(a, b)] == G.mul(phi[a], phi[b]) for a in G for b in G):
            out.append(phi)
    return out


# The automorphism search that `fixtures.automorphisms` ran before it checked
# multiplicativity on generators only, kept verbatim (only renamed): each
# bijective candidate is checked on every pair, so the library must return
# the same list of maps, in order.
def pairwise_automorphisms(G):
    orders = _element_orders(G)
    gens = _generators(one_object_groupoid(G))
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
        if len(set(phi.values())) != len(G):
            continue
        if all(
            phi[G.mul(a, b)] == G.mul(phi[a], phi[b])
            for a in G
            for b in G
        ):
            results.append(phi)
    return results


def group_from_table(table):
    """(elements, identity) of a raw dict table, for sanity-checking inputs."""
    elems = sorted({a for a, _ in table} | {b for _, b in table} | set(table.values()))
    for e in elems:
        if all(table[(e, x)] == x and table[(x, e)] == x for x in elems):
            return elems, e
    raise AssertionError("table has no identity")


def brute_groupoid_violations(G):
    """Every violated groupoid axiom as (rule, detail), in report order.

    An all-pairs scan: every (h, g) pair and every (g, h, k) triple of the
    sorted morphism ids is tested against the raw source/target tables, so a
    pair or triple that a per-object walk misses still shows.
    """
    out = []
    morphs = sorted(G.source)

    # composition domain: defined exactly on composable pairs
    for h, g in itertools.product(morphs, repeat=2):
        composable = G.target[g] == G.source[h]
        defined = (h, g) in G.table
        if composable and not defined:
            out.append(("composition-domain", f"composable pair ({h}, {g}) undefined"))
        elif defined and not composable:
            out.append(("composition-domain", f"non-composable pair ({h}, {g}) defined"))
        elif defined:
            r = G.table[(h, g)]
            if G.source[r] != G.source[g] or G.target[r] != G.target[h]:
                out.append((
                    "composition-endpoints",
                    f"({h}, {g}) -> {r} has endpoints "
                    f"{G.source[r]} -> {G.target[r]}, expected "
                    f"{G.source[g]} -> {G.target[h]}",
                ))

    # identities are endomorphisms at their object and two-sided units
    for x, e in G.identities.items():
        if G.source[e] != x or G.target[e] != x:
            out.append(("unit-law", f"identity {e} of {x} is not an endomorphism at {x}"))
            continue
        for m in morphs:
            if G.source[m] == x and G.table.get((m, e)) != m:
                out.append(("unit-law", f"{m} . 1_{x} != {m}"))
            if G.target[m] == x and G.table.get((e, m)) != m:
                out.append(("unit-law", f"1_{x} . {m} != {m}"))

    # inverses
    for m in morphs:
        mi = G.inverses[m]
        if G.source[mi] != G.target[m] or G.target[mi] != G.source[m]:
            out.append(("inverse-law", f"inverse {mi} of {m} has wrong endpoints"))
            continue
        if G.table.get((mi, m)) != G.identities[G.source[m]]:
            out.append(("inverse-law", f"{mi} . {m} != identity at {G.source[m]}"))
        if G.table.get((m, mi)) != G.identities[G.target[m]]:
            out.append(("inverse-law", f"{m} . {mi} != identity at {G.target[m]}"))

    # associativity on all composable triples
    for g in morphs:
        for h in morphs:
            if G.target[g] != G.source[h] or (h, g) not in G.table:
                continue
            for k in morphs:
                if G.target[h] != G.source[k] or (k, h) not in G.table:
                    continue
                lhs = G.table.get((G.table[(k, h)], g))
                rhs = G.table.get((k, G.table[(h, g)]))
                if lhs != rhs:
                    out.append(("associativity", f"({k} . {h}) . {g} != {k} . ({h} . {g})"))
    return out


def brute_twist_action_violations(C):
    """Every violated twist-action instance as (rule, detail), in report order:
    the walk over every composable pair and every 2-morphism that
    `validate_crossed` ran before it proved the action on generators."""
    out = []
    g1, tw = C.g1, C.twist_table
    for h in g1.morphisms:
        for g in g1.into(g1.source[h]):
            hg = g1.table.get((h, g))
            for a in C.g2.group(g1.source[g]):
                lhs = tw.get((hg, a))
                if lhs is not None and lhs != tw[(h, tw[(g, a)])]:
                    out.append((
                        "twist-action",
                        f"twist({h} . {g}, {a}) != twist({h}, twist({g}, {a}))",
                    ))
    return out


def brute_group_associativity_violations(G):
    """Every violated associativity instance of a group as (rule, detail), in
    report order: the walk over every triple that `validate_group` ran before
    it proved associativity on generators."""
    out = []
    mul = G.mul_or_none
    for a, b, c in itertools.product(G.elements, repeat=3):
        lhs, rhs = mul(mul(a, b), c), mul(a, mul(b, c))
        if None not in (lhs, rhs) and lhs != rhs:
            out.append(("group-associativity", f"({a} . {b}) . {c} != {a} . ({b} . {c})"))
    return out


def brute_group_violations(G):
    """`validate_group`'s report as (rule, detail), with every law walked."""
    out = []
    mul, e = G.mul_or_none, G.identity
    for a in G.elements:
        if mul(e, a) not in (None, a) or mul(a, e) not in (None, a):
            out.append(("group-unit", f"identity is not a unit at {a}"))
        ai = G.inv_or_none(a)
        if ai is None:
            out.append(("group-inverse", f"inverse of {a} is undefined"))
        elif ai not in G:
            out.append(("group-inverse", f"inverse of {a} is not an element"))
        elif mul(ai, a) not in (None, e) or mul(a, ai) not in (None, e):
            out.append(("group-inverse", f"{a} . {ai} is not the identity"))
    for a, b in itertools.product(G.elements, repeat=2):
        ab = mul(a, b)
        if ab is None:
            out.append(("group-closure", f"{a} . {b} is undefined"))
        elif ab not in G:
            out.append(("group-closure", f"{a} . {b} escapes the element set"))
    return out + brute_group_associativity_violations(G)


def brute_twist_homomorphism_violations(C, g):
    """Every pair of 2-morphisms on which twist(g, -) is not multiplicative,
    as (rule, detail): the walk `validate_crossed` ran before it proved the
    law on generators."""
    out = []
    tw = C.twist_table
    grp = C.g2.group(C.g1.source[g])
    image = C.g2.group(C.g1.target[g])
    for a, b in itertools.product(grp.elements, repeat=2):
        lhs = tw.get((g, grp.mul_or_none(a, b)))
        rhs = image.mul_or_none(tw[(g, a)], tw[(g, b)])
        if None not in (lhs, rhs) and lhs != rhs:
            out.append((
                "twist-homomorphism",
                f"twist({g}, {a} . {b}) != twist({g}, {a}) . twist({g}, {b})",
            ))
    return out


def brute_feedback_functor_violations(C, x):
    """Every pair at x on which the feedback is not multiplicative, as
    (rule, detail), walked as `brute_twist_homomorphism_violations`."""
    out = []
    fb, grp = C.feedback_table, C.g2.group(x)
    for a, b in itertools.product(grp.elements, repeat=2):
        lhs, rhs = fb.get(grp.mul_or_none(a, b)), C.g1.table.get((fb[a], fb[b]))
        if None not in (lhs, rhs) and lhs != rhs:
            out.append((
                "feedback-functor",
                f"feedback({a} . {b}) != feedback({a}) . feedback({b})",
            ))
    return out


def brute_peiffer_violations(C, x):
    """Every pair at x that breaks the Peiffer identity, as (rule, detail),
    walked as `brute_twist_homomorphism_violations`."""
    out = []
    tw, fb, grp = C.twist_table, C.feedback_table, C.g2.group(x)
    for a, b in itertools.product(grp.elements, repeat=2):
        lhs = tw.get((fb[a], b))
        rhs = grp.mul_or_none(grp.mul_or_none(a, b), grp.inv_or_none(a))
        if None not in (lhs, rhs) and lhs != rhs:
            out.append(("peiffer", f"twist(feedback({a}), {b}) != {a} . {b} . {a}^-1"))
    return out


def walked_crossed_violations(C):
    """`validate_crossed`'s report as (rule, detail) on a crossed groupoid
    that is not a cover level, with every law walked over every instance:
    the groupoid and group sections come from the oracles above."""
    assert C.power is None
    g1, tw, fb = C.g1, C.twist_table, C.feedback_table
    out = brute_groupoid_violations(g1)
    for x in C.g2.objects:
        out += [(rule, f"g2({x}): {detail}")
                for rule, detail in brute_group_violations(C.g2.group(x))]
    for x in C.objects:
        for a in C.g2.group(x):
            r = tw.get((g1.identities[x], a))
            if r is not None and r != a:
                out.append(("twist-unit", f"twist(1_{x}, {a}) != {a}"))
    for g in g1.morphisms:
        grp = C.g2.group(g1.source[g])
        if len({tw[(g, a)] for a in grp}) != len(grp):
            out.append(("twist-bijective", f"twist({g}, -) is not injective"))
        out += brute_twist_homomorphism_violations(C, g)
    out += brute_twist_action_violations(C)
    for x in C.objects:
        grp = C.g2.group(x)
        if fb[grp.identity] != g1.identities[x]:
            out.append(("feedback-unit", f"feedback(1) != 1_{x}"))
        for a in grp:
            if g1.source[fb[a]] != x or g1.target[fb[a]] != x:
                out.append(("feedback-endpoints", f"feedback({a}) is not an endomorphism at {x}"))
        out += brute_feedback_functor_violations(C, x)
    for (g, a), r in tw.items():
        rhs = g1.table.get((g1.table.get((g, fb[a])), g1.inverses[g]))
        if rhs is not None and fb[r] != rhs:
            out.append((
                "equivariance",
                f"feedback(twist({g}, {a})) != {g} . feedback({a}) . {g}^-1",
            ))
    for x in C.objects:
        out += brute_peiffer_violations(C, x)
    return out


def brute_morphism_g1_violations(F):
    """Every composable pair that F does not carry to a composite, as
    (rule, detail), in table order: the walk `validate_crossed_morphism` runs
    on a morphism whose ends are not known to be valid."""
    out = []
    S, T, mor1 = F.source.g1, F.target.g1, F.mor1_map
    for (h, g), r in S.table.items():
        if T.table.get((mor1.get(h), mor1.get(g))) != mor1.get(r):
            out.append(("morphism-g1", f"composition ({h}, {g}) not preserved"))
    return out


def brute_morphism_g2_violations(F, x):
    """Every pair at x whose product F does not preserve, as (rule, detail),
    walked as `brute_morphism_g1_violations`."""
    out = []
    mor2 = F.mor2_map
    grp, tgrp = F.source.g2.group(x), F.target.g2.group(F.obj_map[x])
    for a, b in itertools.product(grp.elements, repeat=2):
        ab, rhs = grp.mul_or_none(a, b), tgrp.mul_or_none(mor2.get(a), mor2.get(b))
        if None not in (ab, rhs) and mor2.get(ab) != rhs:
            out.append(("morphism-g2", f"product {a} . {b} at {x} not preserved"))
    return out


def walked_morphism_violations(F):
    """`validate_crossed_morphism`'s report as (rule, detail), every law walked."""
    S, T = F.source, F.target
    obj, mor1, mor2 = F.obj_map, F.mor1_map, F.mor2_map
    for x in S.objects:
        if obj.get(x) not in T.objects:
            return [("morphism-objects", f"image of object {x} is unknown")]
    out = []
    for m in S.g1.morphisms:
        fm = mor1.get(m)
        if fm not in T.g1.source:
            out.append(("morphism-g1", f"image of {m} is not a 1-morphism"))
        elif (T.g1.source[fm], T.g1.target[fm]) != (obj[S.g1.source[m]], obj[S.g1.target[m]]):
            out.append(("morphism-g1", f"image of {m} has wrong endpoints"))
    for x in S.objects:
        if mor1.get(S.g1.identities[x]) != T.g1.identities[obj[x]]:
            out.append(("morphism-g1", f"identity at {x} not preserved"))
    out += brute_morphism_g1_violations(F)
    for x in S.objects:
        grp, tgrp = S.g2.group(x), T.g2.group(obj[x])
        for a in grp:
            if mor2.get(a) not in tgrp:
                out.append(("morphism-g2", f"image of {a} is not at the image object"))
        if mor2.get(grp.identity) != tgrp.identity:
            out.append(("morphism-g2", f"unit of g2({x}) not preserved"))
        out += brute_morphism_g2_violations(F, x)
    for (g, a), r in S.twist_table.items():
        rhs = T.twist_table.get((mor1.get(g), mor2.get(a)))
        if rhs is not None and mor2.get(r) != rhs:
            out.append(("morphism-twist", f"twist({g}, {a}) not preserved"))
    for a, d in S.feedback_table.items():
        rhs = T.feedback_table.get(mor2.get(a))
        if rhs is not None and mor1.get(d) != rhs:
            out.append(("morphism-feedback", f"feedback({a}) not preserved"))
    return out


def walked_diagram_violations(D):
    """`validate_diagram`'s report as (rule, detail) on a diagram without
    cover levels, from the walks above; each cosimplicial identity composes
    the raw maps and names the first differing entry in sorted order."""
    out = []
    for p, level in enumerate(D.levels):
        out += [(rule, f"level {p}: {detail}")
                for rule, detail in walked_crossed_violations(level)]
    for (p, k), d in sorted(D.cofaces.items()):
        out += [(rule, f"coface d^{k} at {p}: {detail}")
                for rule, detail in walked_morphism_violations(d)]
    if out:
        return out

    def maps(after, before):
        return [
            ("obj", {x: after.obj_map[y] for x, y in before.obj_map.items()}),
            ("mor1", {m: after.mor1_map[n] for m, n in before.mor1_map.items()}),
            ("mor2", {a: after.mor2_map[b] for a, b in before.mor2_map.items()}),
        ]

    for p in range(2):
        for j in range(p + 3):
            for i in range(j):
                lhs = maps(D.cofaces[(p + 1, j)], D.cofaces[(p, i)])
                rhs = maps(D.cofaces[(p + 1, i)], D.cofaces[(p, j - 1)])
                witness = next(
                    (f"{kind} {key}: {left[key]} vs {right.get(key)}"
                     for (kind, left), (_, right) in zip(lhs, rhs)
                     for key in sorted(left) if left[key] != right.get(key)),
                    None,
                )
                if witness is not None:
                    out.append((
                        "cosimplicial-identity",
                        f"d^{j} d^{i} != d^{i} d^{j - 1} out of level {p} (at {witness})",
                    ))
    return out


# The diagram loaders from before a document's equal levels and maps were
# loaded as one object, kept verbatim (only renamed; the morphism loader
# takes explicit embedded diagrams only).  Every level and every coface or
# level map is built from its own payload.
def unshared_diagram_from_json(d: dict) -> CrossedDiagram:
    levels = tuple(crossed_from_json(ld) for ld in _require(d, "levels", "diagram"))
    if len(levels) != 4:
        raise LoadError("a diagram document needs exactly four levels")
    cofaces = {}
    for key, maps in _require(d, "cofaces", "diagram").items():
        try:
            p, k = (int(part) for part in key.split(","))
        except ValueError:
            raise LoadError(f"bad coface key {key!r}; expected 'p,k'") from None
        cofaces[(p, k)] = _maps_from_json(maps, levels[p], levels[p + 1], "coface")
    return CrossedDiagram(levels, cofaces)


def unshared_diagram_morphism_from_json(d: dict) -> DiagramMorphism:
    source = unshared_diagram_from_json(_require(d, "source", "diagram-morphism"))
    target = unshared_diagram_from_json(_require(d, "target", "diagram-morphism"))
    maps = _require(d, "levels", "diagram-morphism")
    if len(maps) != 4:
        raise LoadError("a diagram-morphism document needs exactly four level maps")
    levels = tuple(
        _maps_from_json(maps[p], source.levels[p], target.levels[p], "level map")
        for p in range(4)
    )
    return DiagramMorphism(source, target, levels)


def fatten_tables(C, n):
    """The tables of `fatten(C, n)`, written one entry at a time.

    Returns (g1 composition table, twist table, feedback table, g2 owner) as
    dicts whose insertion order is the order the entries are listed in: morphism
    ids by base morphism, source copy, target copy; 2-morphism ids by object,
    copy, base element.
    """
    g1 = C.g1
    morph_ids = {
        (m, i, j): f"{m}@{i}.{j}" for m in g1.source for i in range(n) for j in range(n)
    }
    table = {}
    for (m2, j, k), after in morph_ids.items():
        for m1 in sorted(g1.source):
            if g1.target[m1] != g1.source[m2]:
                continue
            r = g1.table[(m2, m1)]
            for i in range(n):
                table[(after, morph_ids[(m1, i, j)])] = morph_ids[(r, i, k)]
    owner = {}
    for x in g1.objects:
        for i in range(n):
            for a in C.g2.group(x):
                owner[f"{a}@{i}"] = f"{x}@{i}"
    twist = {}
    for (m, i, j), mid in morph_ids.items():
        for a in C.g2.group(g1.source[m]):
            twist[(mid, f"{a}@{i}")] = f"{C.twist_table[(m, a)]}@{j}"
    feedback = {}
    for a, d in C.feedback_table.items():
        for i in range(n):
            feedback[f"{a}@{i}"] = morph_ids[(d, i, i)]
    return table, twist, feedback, owner


def relabeled_fattening(C, n):
    """The g2 of `fatten(C, n)` and its inclusion's 2-morphism map, built
    eagerly as the library built them before they became views of C: each
    copy's group relabeled element by element (the former
    `fixtures._relabel_group`, kept verbatim), a `DisconnectedGroupoid`
    with its owner dict, and the inclusion of copy 0 as a dict."""

    def relabel_group(base, tag):
        elems = tuple(f"{e}{tag}" for e in base.elements)
        cut = -len(tag)

        def mul(a, b):
            return f"{base.mul(a[:cut], b[:cut])}{tag}"

        def inv(a):
            return f"{base.inv(a[:cut])}{tag}"

        return FiniteGroup(elems, f"{base.identity}{tag}", mul, inv)

    groups = {
        f"{x}@{i}": relabel_group(C.g2.group(x), f"@{i}")
        for x in C.g1.objects
        for i in range(n)
    }
    mor2_map = {}
    for x, grp in C.g2.groups.items():
        mor2_map.update(zip(grp.elements, groups[f"{x}@0"].elements))
    return DisconnectedGroupoid(groups), mor2_map


def eager_fattened_g1(C, n):
    """The g1 of `fatten(C, n)` as `fatten` built it before its composition
    table was made on first read: the ids, the source, target and inverse
    tables, the composition loop and the groupoid, kept verbatim."""
    g1 = C.g1
    copies = [f"@{i}" for i in range(n)]
    objects = {x: [x + c for c in copies] for x in g1.objects}  # x -> [x@0, x@1, ...]
    # m -> [[m@i.j for each j] for each i], in the order the ids are listed
    ids = {m: [[f"{m}{c}.{j}" for j in range(n)] for c in copies] for m in g1.source}
    source, target, inverses = {}, {}, {}
    for m, rows in ids.items():
        x, y, inverse = objects[g1.source[m]], objects[g1.target[m]], ids[g1.inverses[m]]
        for i, row in enumerate(rows):
            for j, mid in enumerate(row):
                source[mid], target[mid], inverses[mid] = x[i], y[j], inverse[j][i]
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
    identities = {xi: ids[g1.identities[x]][i][i]
                  for x, copy_ids in objects.items() for i, xi in enumerate(copy_ids)}
    return FiniteGroupoid(tuple(itertools.chain.from_iterable(objects.values())),
                          source, target, identities, table, inverses)


def scanned_weak_equivalence(F):
    """`is_weak_equivalence_crossed` as it was before it proved a fattening
    inclusion's pi2 through the base: every pi2 list is mapped through
    `apply_mor2` and compared with the target's."""
    report = ValidationReport()
    S, T = F.source, F.target
    hs, ht = homotopy(S), homotopy(T)

    # pi0: the target components that the objects of each source component hit
    hit: dict[str, set[str]] = {}
    for x in S.objects:
        y = F.apply_obj(x)
        if y in ht.pi0:
            hit.setdefault(hs.pi0[x], set()).add(ht.pi0[y])
        else:
            report.add("pi0", f"image {y} of object {x} is not an object of the target")
    for label, labels in sorted(hit.items()):
        if len(labels) > 1:
            report.add("pi0", f"objects of component {label} land in several target components")
    image = set().union(*hit.values())
    if sum(map(len, hit.values())) != len(image):
        report.add("pi0", "induced component map is not injective")
    if image != set(ht.pi0.values()):
        report.add("pi0", "induced component map is not surjective")

    for x in S.objects:
        y = F.apply_obj(x)
        if y not in ht.pi0:
            continue
        # pi1: [g] -> [F(g)] must be a bijection of coset representatives
        p1s, p1t = hs.pi1[x], ht.pi1[y]
        induced = [p1t.coset_of.get(F.apply_mor1(r)) for r in p1s.reps]
        if None in induced:
            report.add("pi1", f"induced map on pi1 at {x} leaves the automorphisms of {y}")
        else:
            if len(set(induced)) != len(induced):
                report.add("pi1", f"induced map on pi1 at {x} is not injective")
            if set(induced) != set(p1t.reps):
                report.add("pi1", f"induced map on pi1 at {x} is not surjective")
        # pi2: kernel to kernel, bijectively
        images = [F.apply_mor2(a) for a in hs.pi2[x]]
        if len(set(images)) != len(images):
            report.add("pi2", f"induced map on pi2 at {x} is not injective")
        if set(images) != set(ht.pi2[y]):
            report.add("pi2", f"induced map on pi2 at {x} is not surjective")
    return report.ok, report


def scanned_weak_equivalence_diagram(F):
    """`scanned_weak_equivalence` at every level of a diagram morphism, with
    the report of `transfer.is_weak_equivalence_diagram`."""
    report = ValidationReport()
    for p in range(4):
        _, level_report = scanned_weak_equivalence(F.levels[p])
        report.extend(level_report, prefix=f"level {p}: ")
    return report.ok, report


def power_tables(C, k):
    """The tables of the k-fold power of the one-object crossed group C,
    written one entry at a time from the "|"-split ids: (g1 composition
    table, twist table, feedback table, g2 owner).  Ids join k base ids,
    listed in lexicographic order of the base ids' positions."""
    (x,) = C.objects
    g1_ids = sorted(C.g1.source)
    g2_ids = list(C.g2.group(x).elements)
    mors = ["|".join(c) for c in itertools.product(g1_ids, repeat=k)]
    cells = ["|".join(c) for c in itertools.product(g2_ids, repeat=k)]
    table = {}
    for h in mors:
        for g in mors:
            table[(h, g)] = "|".join(
                C.g1.table[(hx, gx)] for hx, gx in zip(h.split("|"), g.split("|"))
            )
    twist = {}
    for g in mors:
        for a in cells:
            twist[(g, a)] = "|".join(
                C.twist_table[(gx, ax)] for gx, ax in zip(g.split("|"), a.split("|"))
            )
    feedback = {a: "|".join(C.feedback_table[ax] for ax in a.split("|")) for a in cells}
    return table, twist, feedback, {a: x for a in cells}


def cech_tables(C, m):
    """Per level p of `cech_diagram(C, m)`, the tables of the m^(p+1)-fold
    power of C (`power_tables`): one power per (p+1)-tuple of the m cover
    indices."""
    return [power_tables(C, m ** (p + 1)) for p in range(4)]


# What `cech_diagram` was before it became `power_diagram` over the Čech
# nerve, kept verbatim (only renamed): the nerve is listed inside the level
# and coface loops.
def looped_cech_diagram(C: CrossedGroupoid, m: int) -> CrossedDiagram:
    """The Čech diagram of a one-object crossed group over an abstract cover
    with m indices: level p is the product over all (p+1)-tuples of indices
    (`_power_level`), cofaces reindex by omitting a position.  Each level is
    marked as that power of C, so `validate_crossed` checks it through C,
    and its twist and feedback tables are views of C's.  The cofaces list
    levels 0-2 only; level 3 (65,536 2-morphisms for fix-a-core over 2
    indices) stays unlisted, unless something takes its homotopy."""
    if len(C.objects) != 1:
        raise DomainError("the Čech construction needs a one-object crossed group")
    if m < 1:
        raise DomainError("cover size must be at least 1")
    obj = C.objects[0]

    # sized from m before anything is built: level p's ids have k = m^(p+1)
    # parts, and no power is taken with an exponent k over the bound
    for p in range(4):
        k = m ** (p + 1)
        if (k > DEFAULT_BOUND or len(C.g2.group(obj)) ** k > DEFAULT_BOUND
                or (len(C.g1.source) ** k) ** 2 > DEFAULT_BOUND):
            raise ResourceBoundError(f"Čech level {p} exceeds the size bound")

    tuples = [sorted(itertools.product(range(m), repeat=p + 1)) for p in range(4)]
    levels = tuple(_power_level(C, len(tuples[p])) for p in range(4))

    def reindex(x: str, positions: list[int]) -> str:
        parts = x.split("|")
        return "|".join([parts[i] for i in positions])

    cofaces = {}
    for p in range(3):
        position = {u: i for i, u in enumerate(tuples[p])}
        for k in range(p + 2):
            # coordinate u of the image is the input's coordinate u minus place k
            positions = [position[u[:k] + u[k + 1:]] for u in tuples[p + 1]]
            mor1_map = {g: reindex(g, positions) for g in levels[p].g1.source}
            mor2_map = {a: reindex(a, positions) for a in levels[p].g2.owner}
            cofaces[(p, k)] = CrossedMorphism(
                levels[p], levels[p + 1], {obj: obj}, mor1_map, mor2_map
            )
    return CrossedDiagram(levels, cofaces)


# The breadth-first classifier that `gauge_classes` replaced, kept verbatim
# (only renamed) so that the orbit scan can be compared with it, insertion
# order included.  It builds every gauge edge, forward and backward, and
# searches the resulting graph from each member not reached yet.
def bfs_gauge_classes(
    D: CrossedDiagram, bound: int = DEFAULT_BOUND
) -> ClassTable:
    """Partition all descent data by scanning typed (source, f, c) candidates.

    Every candidate determines its destination uniquely, so the scan visits
    the complete gauge relation.  Witness gauges to the canonical (least)
    representative are accumulated by breadth-first composition and verified.
    """
    members = enumerate_descent(D, bound)
    member_set = set(members)
    L0, L1 = D.levels[0], D.levels[1]

    total = 0
    for t in members:
        x0 = vertex_object(D, t.x, 0, 1)
        n_c = len(L1.g2.group(x0))
        n_f = len(L0.g1.out_of(t.x))
        total += n_c * n_f
    if total > bound:
        raise ResourceBoundError(f"{total} gauge candidates exceed the bound of {bound}")

    edges: dict[DescentDatum, list[tuple[DescentDatum, GaugeTransformation, bool]]] = {
        m: [] for m in members
    }
    for src in members:
        x0 = vertex_object(D, src.x, 0, 1)
        for fm in L0.g1.out_of(src.x):
            x_prime = L0.g1.dst(fm)
            for c in sorted(L1.g2.group(x0).elements):
                t = GaugeTransformation(fm, c)
                dst = DescentDatum(x_prime, _predicted_g(D, src.g, t), _predicted_a(D, src, t))
                if dst not in member_set:
                    raise CrossedDescError(
                        f"gauge image {dst} of {src} is not a descent datum"
                    )
                edges[src].append((dst, t, True))
                edges[dst].append((src, t, False))

    rep_of: dict[DescentDatum, DescentDatum] = {}
    witnesses: dict[DescentDatum, GaugeTransformation] = {}
    for rep in members:
        if rep in witnesses:
            continue
        # members are sorted, so a member not reached yet is the least of its
        # class; breadth-first from it, carrying gauges node -> rep
        witnesses[rep] = gauge_identity(D, rep)
        rep_of[rep] = rep
        frontier = [rep]
        while frontier:
            nxt = []
            for node in frontier:
                w_node = witnesses[node]
                for other, t, forward in edges[node]:
                    if other in witnesses:
                        continue
                    if forward:
                        # t : node -> other, so other -> rep is w_node . t^-1
                        w = gauge_compose(D, w_node, gauge_invert(D, t))
                    else:
                        # t : other -> node
                        w = gauge_compose(D, w_node, t)
                    witnesses[other] = w
                    rep_of[other] = rep
                    nxt.append(other)
            frontier = nxt
    for m in members:
        ok, report = is_gauge(D, witnesses[m], m, rep_of[m])
        if not ok:
            raise CrossedDescError(f"witness for {m} failed verification: {report.violations}")
    return ClassTable(members, rep_of, witnesses)


# The orbit scan that `gauge_classes` computed before it read the face maps
# and level tables once per diagram, object and cell, kept verbatim (only
# renamed): every candidate goes through `_predicted_g` and `_predicted_a`,
# so the library must return its table, insertion order included, or raise
# its error, on valid and on corrupted input alike.
def scan_gauge_classes(
    D: CrossedDiagram, bound: int = DEFAULT_BOUND
) -> ClassTable:
    """Partition all descent data into gauge classes, which are orbits.

    Members are scanned in sorted order.  A member not reached yet is the least
    of its class and becomes its representative; its own candidates (f, c)
    reach its whole class in one hop, and the first candidate t reaching a
    member gives that member the witness 1_rep . t^-1.  The candidates of every
    other member are scanned as well: each image must be a descent datum of the
    scanning member's class.  Every witness is verified.
    """
    members = enumerate_descent(D, bound)
    member_set = set(members)
    L0, L1 = D.levels[0], D.levels[1]

    total = 0
    for t in members:
        x0 = vertex_object(D, t.x, 0, 1)
        n_c = len(L1.g2.group(x0))
        n_f = len(L0.g1.out_of(t.x))
        total += n_c * n_f
    if total > bound:
        raise ResourceBoundError(f"{total} gauge candidates exceed the bound of {bound}")

    rep_of: dict[DescentDatum, DescentDatum] = {}
    first: dict[DescentDatum, GaugeTransformation] = {}  # member <- first t from its rep
    for src in members:
        rep = rep_of.setdefault(src, src)
        x0 = vertex_object(D, src.x, 0, 1)
        for fm in L0.g1.out_of(src.x):
            x_prime = L0.g1.dst(fm)
            for c in sorted(L1.g2.group(x0).elements):
                t = GaugeTransformation(fm, c)
                dst = DescentDatum(x_prime, _predicted_g(D, src.g, t), _predicted_a(D, src, t))
                if dst not in member_set:
                    raise CrossedDescError(
                        f"gauge image {dst} of {src} is not a descent datum"
                    )
                if src == rep and dst not in rep_of:
                    rep_of[dst] = rep
                    first[dst] = t
                elif rep_of.get(dst) != rep:
                    raise CrossedDescError(
                        f"gauge image {dst} of {src} lies outside the class of {rep}"
                    )

    # t : rep -> m, so m -> rep is 1_rep . t^-1; each rep precedes its members
    witnesses: dict[DescentDatum, GaugeTransformation] = {}
    for m, rep in rep_of.items():
        if m == rep:
            witnesses[m] = gauge_identity(D, rep)
        else:
            witnesses[m] = gauge_compose(D, witnesses[rep], gauge_invert(D, first[m]))
    for m in members:
        ok, report = is_gauge(D, witnesses[m], m, rep_of[m])
        if not ok:
            raise CrossedDescError(f"witness for {m} failed verification: {report.violations}")
    return ClassTable(members, rep_of, witnesses)
