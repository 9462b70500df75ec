"""Descent data in a crossed diagram, gauge transformations, and their
classification.

A descent datum is a triple (x, g, a): an object of level 0, a 1-morphism
x_(0) -> x_(1) of level 1, and a 2-morphism of level 2 at x_(0), subject to
the failure-of-1-cocycle condition in level 2 and the twisted-2-cocycle
condition in level 3.  Gauge transformations (f, c) relate such triples; they
form an equivalence relation whose identity, composition, and inversion are
implemented here, together with the completion operation that fills in the
unique third component over a partial datum.  Every gauge out of a datum is
one candidate (f, c) with f out of its object, so a gauge class is the orbit
of any one member: `gauge_classes` reaches each class from its least member.

The classification scan evaluates every candidate of every member, so it
computes nothing more often than its inputs change: the face maps' dicts and
the level tables once per diagram; per level-0 object, the rows
(f, x', f_(1), f_(0) at level 2) of its out-morphisms, each with
feedback(c) . f_(0)^-1 for every level-1 2-cell c; per c, the images
c_(0,1), c_(0,2), c_(1,2); and per member, the f-free inner 2-cell of the
image for each c.  A candidate is then two composition lookups, one twist
lookup and one membership lookup.  The input is not validated, so the tables
need not be associative: every product keeps the bracketing of the checked
formulas `_predicted_g` and `_predicted_a`.

The 2-cell arithmetic is typed: the inner 2-cell is multiplied in the group
of the member's 2-cell at level 2, and the left side of the second descent
condition in the group of a_(0,1,2) at level 3, through that group's own
`mul` and `inv`, whose membership checks make each product the checked
product of the level's g2 (an id is an element of the group at x exactly
when g2's owner maps it to x).  The twisted right side and the twist of f_(0)
are table reads.  Whatever misses or fails there is replayed from the start
by the checked formulas, which raise the checked error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cosimplicial import CrossedDiagram
from .crossed import CrossedGroupoid
from .validation import (
    DEFAULT_BOUND,
    CrossedDescError,
    DomainError,
    ResourceBoundError,
    ValidationReport,
)


@dataclass(frozen=True, order=True)
class DescentDatum:
    x: str
    g: str
    a: str

    def as_json(self) -> dict:
        return {"x": self.x, "g": self.g, "a": self.a}


@dataclass(frozen=True, order=True)
class PartialDescentDatum:
    x: str
    g: str


@dataclass(frozen=True, order=True)
class GaugeTransformation:
    f: str
    c: str

    def as_json(self) -> dict:
        return {"f": self.f, "c": self.c}


# -- face shorthands ----------------------------------------------------


def vertex_object(D: CrossedDiagram, x: str, i: int, q: int) -> str:
    """The level-q object x_(i)."""
    return D.face((i,), q).apply_obj(x)


# -- typing checks ------------------------------------------------------


def _check_datum_typing(D: CrossedDiagram, t: DescentDatum) -> None:
    L0, L1, L2 = D.levels[0], D.levels[1], D.levels[2]
    if t.x not in L0.g1.identities:
        raise DomainError(f"{t.x!r} is not an object of level 0")
    if not L1.g1.contains_morphism(t.g):
        raise DomainError(f"{t.g!r} is not a 1-morphism of level 1")
    x0, x1 = vertex_object(D, t.x, 0, 1), vertex_object(D, t.x, 1, 1)
    if L1.g1.src(t.g) != x0 or L1.g1.dst(t.g) != x1:
        raise DomainError(
            f"{t.g!r} has endpoints {L1.g1.src(t.g)!r} -> {L1.g1.dst(t.g)!r}, "
            f"expected {x0!r} -> {x1!r}"
        )
    x = L2.g2.owner.get(t.a)
    if x is None:
        raise DomainError(f"{t.a!r} is not a 2-morphism of level 2")
    x0_2 = vertex_object(D, t.x, 0, 2)
    if x != x0_2:
        raise DomainError(f"{t.a!r} lives at {x!r}, expected {x0_2!r}")


def _check_partial_typing(D: CrossedDiagram, t: PartialDescentDatum) -> None:
    _check_datum_typing(D, DescentDatum(t.x, t.g, D.levels[2].g2.identity(vertex_object(D, t.x, 0, 2))))


def _check_gauge_typing(
    D: CrossedDiagram, t: GaugeTransformation, x: str, x_prime: str
) -> None:
    L0, L1 = D.levels[0], D.levels[1]
    if not L0.g1.contains_morphism(t.f):
        raise DomainError(f"{t.f!r} is not a 1-morphism of level 0")
    if L0.g1.src(t.f) != x or L0.g1.dst(t.f) != x_prime:
        raise DomainError(
            f"{t.f!r} has endpoints {L0.g1.src(t.f)!r} -> {L0.g1.dst(t.f)!r}, "
            f"expected {x!r} -> {x_prime!r}"
        )
    y = L1.g2.owner.get(t.c)
    if y is None:
        raise DomainError(f"{t.c!r} is not a 2-morphism of level 1")
    x0 = vertex_object(D, x, 0, 1)
    if y != x0:
        raise DomainError(f"{t.c!r} lives at {y!r}, expected {x0!r}")


# -- the two descent conditions -----------------------------------------


def _cocycle_failure(D: CrossedDiagram, g: str) -> str:
    """g_(0,2)^-1 . g_(1,2) . g_(0,1) in level 2, which the first descent
    condition equates with feedback(a)."""
    g01 = D.face((0, 1), 2).apply_mor1(g)
    g02 = D.face((0, 2), 2).apply_mor1(g)
    g12 = D.face((1, 2), 2).apply_mor1(g)
    G = D.levels[2].g1
    return G.compose_all(G.inverse(g02), g12, g01)


_CELL_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

# what a typed product or table read raises where the checked formula must
# be replayed: a miss, an id that is no key, or a checked error
_FAST_PATH_FAILURES = (KeyError, TypeError, CrossedDescError)


def _cell_faces(D: CrossedDiagram, a: str) -> tuple[str, str, str, str]:
    """a_(0,1,2), a_(0,1,3), a_(0,2,3) and a_(1,2,3) in level 3."""
    return tuple(D.face(seq, 3).apply_mor2(a) for seq in _CELL_FACES)


def _twisted_lhs(L3: CrossedGroupoid, faces: tuple[str, str, str, str]) -> str:
    """a_(0,1,3)^-1 . a_(0,2,3) . a_(0,1,2) in level 3, from `_cell_faces`:
    the side of the second descent condition that depends on a alone.

    Multiplied in the group of a_(0,1,2), where the checked products of
    `L3.g2` must land; if anything there fails, the checked formula is
    evaluated from the start and raises the checked error."""
    a012, a013, a023, _ = faces
    try:
        grp = L3.g2.groups[L3.g2.owner[a012]]
        return grp.mul(grp.mul(grp.inv(a013), a023), a012)
    except _FAST_PATH_FAILURES:
        grp = L3.g2
        return grp.mul(grp.mul(grp.inv(a013), a023), a012)


def _twisted_rhs(L3: CrossedGroupoid, g01: str, a123: str) -> str:
    """twist(g_(0,1)^-1, a_(1,2,3)) in level 3: the side that depends on g."""
    return L3.twist(L3.g1.inverse(g01), a123)


def _twisted_cocycle_sides(D: CrossedDiagram, t: DescentDatum) -> tuple[str, str]:
    """The two sides of the second descent condition in level 3, `_twisted_lhs`
    and `_twisted_rhs`: a's faces first, then g_(0,1), the left side and the
    right side."""
    L3 = D.levels[3]
    faces = _cell_faces(D, t.a)
    g01 = D.face((0, 1), 3).apply_mor1(t.g)
    return _twisted_lhs(L3, faces), _twisted_rhs(L3, g01, faces[3])


def is_descent_datum(D: CrossedDiagram, t: DescentDatum) -> tuple[bool, ValidationReport]:
    """Check both descent conditions; ill-typed input raises, it is not False."""
    _check_datum_typing(D, t)
    report = ValidationReport()
    lhs1 = _cocycle_failure(D, t.g)
    rhs1 = D.levels[2].feedback(t.a)
    if lhs1 != rhs1:
        report.add(
            "cocycle-failure",
            f"g_(0,2)^-1 . g_(1,2) . g_(0,1) = {lhs1} but feedback(a) = {rhs1}",
        )
    lhs2, rhs2 = _twisted_cocycle_sides(D, t)
    if lhs2 != rhs2:
        report.add(
            "twisted-2-cocycle",
            f"a_(0,1,3)^-1 . a_(0,2,3) . a_(0,1,2) = {lhs2} but "
            f"twist(g_(0,1)^-1, a_(1,2,3)) = {rhs2}",
        )
    return report.ok, report


def enumerate_descent(D: CrossedDiagram, bound: int = DEFAULT_BOUND) -> list[DescentDatum]:
    """All descent data, in lexicographic (x, g, a) order.

    Candidates come from typed hom-sets and groups, so only the two conditions
    are evaluated.  The cocycle failure of g and g_(0,1) are computed once per
    (x, g); feedback(a), a's faces and the left twisted side once per 2-cell
    a; the right side per candidate.  What a candidate computes runs in
    `is_descent_datum`'s order (g_(0,1) after a's faces and before the left
    side), and what it reuses did not raise when computed, so the first
    error raised is `is_descent_datum`'s.  The right side is a twist-table
    read with g_(0,1)^-1 looked up once per g; on a miss `_twisted_rhs`
    evaluates it checked."""
    total = 0
    plan = []
    for x in sorted(D.levels[0].objects):
        x0, x1 = vertex_object(D, x, 0, 1), vertex_object(D, x, 1, 1)
        homset = D.levels[1].g1.hom(x0, x1)
        x0_2 = vertex_object(D, x, 0, 2)
        cells = sorted(D.levels[2].g2.group(x0_2).elements)
        total += len(homset) * len(cells)
        plan.append((x, homset, cells))
    if total > bound:
        raise ResourceBoundError(
            f"{total} candidate triples exceed the bound of {bound}"
        )
    out = []
    L2, L3 = D.levels[2], D.levels[3]
    twist3, inverse3 = L3.twist_table, L3.g1.inverses
    sides: dict[str, tuple[str, str, str]] = {}  # a -> (feedback(a), a_(1,2,3), lhs)
    for x, homset, cells in plan:
        for g in homset:
            failure = _cocycle_failure(D, g)
            g01 = None
            for a in cells:
                known = sides.get(a)
                if known is None:
                    feedback, faces = L2.feedback(a), _cell_faces(D, a)
                if g01 is None:
                    g01 = D.face((0, 1), 3).apply_mor1(g)
                    # None, which no 1-morphism is, where the lookup would fail
                    g01_inv = inverse3.get(g01) if isinstance(g01, str) else None
                if known is None:
                    known = sides[a] = feedback, faces[3], _twisted_lhs(L3, faces)
                feedback, a123, lhs = known
                try:
                    rhs = twist3[(g01_inv, a123)]
                except _FAST_PATH_FAILURES:
                    rhs = _twisted_rhs(L3, g01, a123)
                if feedback == failure and lhs == rhs:
                    out.append(DescentDatum(x, g, a))
    return out


# -- gauge transformations ----------------------------------------------


def _predicted_g(D: CrossedDiagram, src_g: str, t: GaugeTransformation) -> str:
    """f_(1) . g . feedback(c) . f_(0)^-1 in level 1."""
    L1 = D.levels[1]
    f0 = D.face((0,), 1).apply_mor1(t.f)
    f1 = D.face((1,), 1).apply_mor1(t.f)
    return L1.g1.compose_all(f1, src_g, L1.feedback(t.c), L1.g1.inverse(f0))


def _predicted_a(D: CrossedDiagram, src: DescentDatum, t: GaugeTransformation) -> str:
    """twist(f_(0), c_(0,2)^-1 . a . twist(g_(0,1)^-1, c_(1,2)) . c_(0,1)) in level 2."""
    L2 = D.levels[2]
    f0 = D.face((0,), 2).apply_mor1(t.f)
    g01 = D.face((0, 1), 2).apply_mor1(src.g)
    c01 = D.face((0, 1), 2).apply_mor2(t.c)
    c02 = D.face((0, 2), 2).apply_mor2(t.c)
    c12 = D.face((1, 2), 2).apply_mor2(t.c)
    return L2.twist(f0, _inner_cell(L2, src.a, g01, c01, c02, c12))


def _inner_cell(L2: CrossedGroupoid, a: str, g01: str, c01: str, c02: str, c12: str) -> str:
    """c_(0,2)^-1 . a . twist(g_(0,1)^-1, c_(1,2)) . c_(0,1) in level 2, the
    part of `_predicted_a` that does not depend on f."""
    grp = L2.g2
    return grp.mul(
        grp.mul(grp.mul(grp.inv(c02), a), L2.twist(L2.g1.inverse(g01), c12)),
        c01,
    )


def is_partial_gauge(
    D: CrossedDiagram,
    t: GaugeTransformation,
    src: PartialDescentDatum,
    dst: PartialDescentDatum,
) -> bool:
    """Condition (i) alone, between partial descent data."""
    _check_partial_typing(D, src)
    _check_partial_typing(D, dst)
    _check_gauge_typing(D, t, src.x, dst.x)
    return dst.g == _predicted_g(D, src.g, t)


def is_gauge(
    D: CrossedDiagram,
    t: GaugeTransformation,
    src: DescentDatum,
    dst: DescentDatum,
) -> tuple[bool, ValidationReport]:
    """Check both gauge conditions between two descent data."""
    _check_datum_typing(D, src)
    _check_datum_typing(D, dst)
    _check_gauge_typing(D, t, src.x, dst.x)
    report = ValidationReport()
    want_g = _predicted_g(D, src.g, t)
    if dst.g != want_g:
        report.add("gauge-1", f"destination 1-morphism is {dst.g}, expected {want_g}")
    want_a = _predicted_a(D, src, t)
    if dst.a != want_a:
        report.add("gauge-2", f"destination 2-morphism is {dst.a}, expected {want_a}")
    return report.ok, report


def gauge_identity(D: CrossedDiagram, t: DescentDatum) -> GaugeTransformation:
    """(1_x, 1) from a descent datum to itself."""
    x0 = vertex_object(D, t.x, 0, 1)
    return GaugeTransformation(
        D.levels[0].g1.identity(t.x), D.levels[1].g2.identity(x0)
    )


def gauge_compose(
    D: CrossedDiagram, t2: GaugeTransformation, t1: GaugeTransformation
) -> GaugeTransformation:
    """(f' . f, c . twist(f_(0)^-1, c')) for t1 followed by t2."""
    L0, L1 = D.levels[0], D.levels[1]
    if L0.g1.dst(t1.f) != L0.g1.src(t2.f):
        raise DomainError("gauge transformations are not composable")
    f0 = D.face((0,), 1).apply_mor1(t1.f)
    c = L1.g2.mul(t1.c, L1.twist(L1.g1.inverse(f0), t2.c))
    return GaugeTransformation(L0.g1.compose(t2.f, t1.f), c)


def gauge_invert(D: CrossedDiagram, t: GaugeTransformation) -> GaugeTransformation:
    """(f^-1, twist(f_(0), c^-1))."""
    L0, L1 = D.levels[0], D.levels[1]
    f0 = D.face((0,), 1).apply_mor1(t.f)
    return GaugeTransformation(
        L0.g1.inverse(t.f), L1.twist(f0, L1.g2.inv(t.c))
    )


# -- completion ---------------------------------------------------------


def complete_descent(
    D: CrossedDiagram,
    src: DescentDatum,
    partial_dst: PartialDescentDatum,
    t: GaugeTransformation,
) -> tuple[str, DescentDatum]:
    """Fill in the unique third component making t a full gauge transformation.

    Requires t to be a partial gauge transformation from (src.x, src.g) to
    partial_dst; returns (a', completed datum).  The completed datum passes
    the descent checks and t verifies as a gauge transformation to it; both
    facts are asserted.
    """
    ok, _ = is_descent_datum(D, src)
    if not ok:
        raise DomainError("source triple is not a descent datum")
    if not is_partial_gauge(D, t, PartialDescentDatum(src.x, src.g), partial_dst):
        raise DomainError("not a partial gauge transformation to the partial datum")
    a_prime = _predicted_a(D, src, t)
    dst = DescentDatum(partial_dst.x, partial_dst.g, a_prime)
    ok, report = is_descent_datum(D, dst)
    if not ok:
        raise CrossedDescError(f"completion is not a descent datum: {report.violations}")
    ok, report = is_gauge(D, t, src, dst)
    if not ok:
        raise CrossedDescError(f"completion does not verify as a gauge: {report.violations}")
    return a_prime, dst


# -- classification -----------------------------------------------------


@dataclass
class ClassTable:
    """Gauge classes with canonical representatives and verified witnesses."""

    members: list[DescentDatum]
    rep_of: dict[DescentDatum, DescentDatum]
    witnesses: dict[DescentDatum, GaugeTransformation]  # member -> gauge to its rep

    @property
    def reps(self) -> list[DescentDatum]:
        return sorted(set(self.rep_of.values()))

    def class_members(self, rep: DescentDatum) -> list[DescentDatum]:
        return sorted(m for m, r in self.rep_of.items() if r == rep)


def gauge_classes(D: CrossedDiagram, bound: int = DEFAULT_BOUND) -> ClassTable:
    """Partition all descent data into gauge classes, which are orbits.

    Members are scanned in sorted order.  A member not reached yet is the least
    of its class and becomes its representative; its own candidates (f, c)
    reach its whole class in one hop, and the first candidate t reaching a
    member gives that member the witness 1_rep . t^-1.  The candidates of every
    other member are scanned as well: each image must be a descent datum of the
    scanning member's class.  Every witness is verified.

    Each value of the scan is computed once per change of its inputs: the
    face maps and level tables once per diagram, the 1-morphism rows (with
    feedback(c) . f_(0)^-1 for each c) once per level-0 object and the 2-cell
    rows once per level-1 object (`_GaugeScan`), and the f-free inner 2-cell
    once per member and 2-cell, multiplied in the group of the member's
    2-cell (`_gauge_images`).  A candidate then costs two composition
    lookups, one twist lookup and one membership lookup.  The products keep
    the bracketing of `_predicted_g` and `_predicted_a`, because the input is
    not validated and a table need not be associative; a candidate whose
    lookups miss, or whose inner 2-cell failed, is replayed by those checked
    formulas, which raise the checked error.
    """
    members = enumerate_descent(D, bound)
    L0, L1 = D.levels[0], D.levels[1]

    total = 0
    for t in members:
        x0 = vertex_object(D, t.x, 0, 1)
        n_c = len(L1.g2.group(x0))
        n_f = len(L0.g1.out_of(t.x))
        total += n_c * n_f
    if total > bound:
        raise ResourceBoundError(f"{total} gauge candidates exceed the bound of {bound}")

    if not members:  # nothing to scan; `_GaugeScan` reads faces built by a datum
        return ClassTable(members, {}, {})

    # members by position: a candidate's image is looked up as a plain tuple
    scan = _GaugeScan(D, members)
    position = {(m.x, m.g, m.a): i for i, m in enumerate(members)}
    rep_at = [-1] * len(members)  # position of each member's rep; -1: not reached
    reached: list[int] = []  # positions in the order they are reached
    first: dict[int, tuple[str, str]] = {}  # member <- first (f, c) from its rep
    for i, src in enumerate(members):
        if rep_at[i] < 0:
            rep_at[i] = i
            reached.append(i)
        rep = rep_at[i]
        for t, dst in _gauge_images(scan, src):
            j = position.get(dst)
            if j is None:
                raise CrossedDescError(
                    f"gauge image {DescentDatum(*dst)} of {src} is not a descent datum"
                )
            if i == rep and rep_at[j] < 0:
                rep_at[j] = rep
                reached.append(j)
                first[j] = t
            elif rep_at[j] != rep:
                raise CrossedDescError(
                    f"gauge image {members[j]} of {src} lies outside the class of "
                    f"{members[rep]}"
                )

    # t : rep -> m, so m -> rep is 1_rep . t^-1; each rep precedes its members
    rep_of: dict[DescentDatum, DescentDatum] = {}
    witnesses: dict[DescentDatum, GaugeTransformation] = {}
    for j in reached:
        m, rep = members[j], members[rep_at[j]]
        rep_of[m] = rep
        if m == rep:
            witnesses[m] = gauge_identity(D, rep)
        else:
            t = GaugeTransformation(*first[j])
            witnesses[m] = gauge_compose(D, witnesses[rep], gauge_invert(D, t))
    for m in members:
        ok, report = is_gauge(D, witnesses[m], m, rep_of[m])
        if not ok:
            raise CrossedDescError(f"witness for {m} failed verification: {report.violations}")
    return ClassTable(members, rep_of, witnesses)


class _GaugeScan:
    """What the gauge scan of D reads: the level tables and face maps, and
    the rows below, each computed once.

    `cells[x_(0)]`: the row (c, c_(0,1), c_(0,2), c_(1,2)) of each
    2-morphism c at x_(0) of level 1, sorted.
    `rows[x]`, per level-0 object x of a member: x_(0) at level 1, and the row
    (f, x', f_(1), twist row of f_(0) at level 2, heads) of each f: x -> x',
    sorted, where heads holds feedback(c) . f_(0)^-1 at level 1 for each c of
    `cells[x_(0)]`.  An undefined image, inverse or composite is None, so
    every lookup that uses it misses.  Needs a member: its descent check has
    built every face read here.
    """

    def __init__(self, D: CrossedDiagram, members: list[DescentDatum]):
        L0, L1, L2 = D.levels[0], D.levels[1], D.levels[2]
        self.D = D
        self.compose1 = compose1 = L1.g1.table
        self.g01 = D.face((0, 1), 2).mor1_map
        f0, f1 = D.face((0,), 1).mor1_map, D.face((1,), 1).mor1_map
        f0_2 = D.face((0,), 2).mor1_map
        c01, c02, c12 = (D.face(ij, 2).mor2_map for ij in ((0, 1), (0, 2), (1, 2)))
        inverse1, feedback1 = L1.g1.inverses, L1.feedback_table
        self.cells: dict[str, list[tuple]] = {}
        self.rows: dict[str, tuple[str, list[tuple]]] = {}
        for x in dict.fromkeys(m.x for m in members):
            x0 = vertex_object(D, x, 0, 1)
            if x0 not in self.cells:
                self.cells[x0] = [(c, c01.get(c), c02.get(c), c12.get(c))
                                  for c in sorted(L1.g2.group(x0).elements)]
            feedbacks = [feedback1[c] for c, _, _, _ in self.cells[x0]]
            rows = []
            for f in L0.g1.out_of(x):
                f0_inv = inverse1.get(f0.get(f))
                rows.append((f, L0.g1.target[f], f1.get(f), L2.twist_row(f0_2.get(f)),
                             [compose1.get((d, f0_inv)) for d in feedbacks]))
            self.rows[x] = (x0, rows)


def _gauge_images(scan: _GaugeScan, src: DescentDatum):
    """Every gauge candidate out of `src` with its image, in scan order (f
    out of src.x, then c, both sorted), as plain tuples ((f, c), (x', g', a')).

    A hit in a table implies the check the checked accessors make (a twist
    row holds only the 2-morphisms at its 1-morphism's source), so a
    candidate whose lookups all hit has the checked value; one that misses
    is evaluated by `_predicted_g` and `_predicted_a`, which raise the
    checked error.  The f-free inner 2-cell of each c is multiplied in the
    group of src.a at level 2, where the checked products of `_inner_cell`
    must land, with its twist read from the table; where anything fails it
    is None, and that c's candidates are evaluated checked.
    """
    D, L2 = scan.D, scan.D.levels[2]
    x0, rows = scan.rows[src.x]
    cells = scan.cells[x0]
    g, a = src.g, src.a
    grp, twist2 = L2.g2.groups[L2.g2.owner[a]], L2.twist_table
    g01 = scan.g01.get(g)
    g01_inv = L2.g1.inverses.get(g01) if isinstance(g01, str) else None
    inners = []  # the f-free part of a', per c
    for _, c01, c02, c12 in cells:
        try:
            inners.append(grp.mul(grp.mul(grp.mul(grp.inv(c02), a), twist2[(g01_inv, c12)]), c01))
        except _FAST_PATH_FAILURES:
            inners.append(None)
    compose = scan.compose1
    for f, x_prime, f1, twist_f0, heads in rows:
        for (c, _, _, _), head, inner in zip(cells, heads, inners):
            try:
                g_new = compose[(f1, compose[(g, head)])]
                a_new = twist_f0[inner]
            except KeyError:
                t = GaugeTransformation(f, c)
                g_new, a_new = _predicted_g(D, g, t), _predicted_a(D, src, t)
            yield (f, c), (x_prime, g_new, a_new)
