"""Diagrams of crossed groupoids indexed by the 3-truncated injective simplex
category.

A diagram holds four crossed groupoids (levels 0..3) and coface morphisms
d^k : level p -> level p+1 for 0 <= k <= p+1, p <= 2, satisfying the
cosimplicial identities.  The map of a face is the composite of the cofaces
for its skipped vertices; each diagram builds it once and keeps it.  A
diagram composes each distinct (after, before) pair of map objects once and
keeps the composite with the pair: its faces, the sides of its cosimplicial
identities, and the side through its coface of a naturality square of a
diagram morphism out of or into it.  A constant diagram holds one coface
object, so the eighteen sides of its identities are one composite.  What a
diagram keeps is not rebuilt when a map is edited in place: edit a copy of
the map and build a new diagram.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crossed import (
    CrossedGroupoid,
    CrossedMorphism,
    compose_crossed_morphisms,
    crossed_morphisms_equal,
    identity_crossed_morphism,
    validate_crossed,
    validate_crossed_morphism,
)
from .validation import DomainError, LoadError, ValidationReport

MAX_DIM = 3


@dataclass
class CrossedDiagram:
    """Levels 0..3 with coface crossed morphisms, keyed (level, index)."""

    levels: tuple[CrossedGroupoid, CrossedGroupoid, CrossedGroupoid, CrossedGroupoid]
    cofaces: dict[tuple[int, int], CrossedMorphism]
    _faces: dict[tuple[tuple[int, ...], int], CrossedMorphism] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # (id(after), id(before)) -> (after, before, composite): the pair is kept
    # with its composite, so its ids name no other objects while it is kept
    _composites: dict[tuple[int, int], tuple[CrossedMorphism, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.levels) != 4:
            raise LoadError("a diagram has exactly four levels")
        expected = {(p, k) for p in range(3) for k in range(p + 2)}
        if set(self.cofaces) != expected:
            raise LoadError("coface table must hold d^k for 0 <= k <= p+1, p <= 2")
        for (p, k), d in self.cofaces.items():
            if d.source is not self.levels[p] or d.target is not self.levels[p + 1]:
                raise LoadError(f"coface ({p}, {k}) does not connect level {p} to {p + 1}")

    def face(self, seq: tuple[int, ...], q: int) -> CrossedMorphism:
        """The map level p -> level q of the face with strictly increasing
        vertex sequence `seq` (p = len(seq) - 1 < q <= 3).

        It composes the cofaces d^k for the skipped vertices k in ascending
        order: d^{k_1} first, then d^{k_2}, ...  Built on first use, then kept.
        """
        try:
            return self._faces[(seq, q)]
        except KeyError:
            pass
        if not seq:
            raise DomainError("a face needs at least one vertex")
        if any(b <= a for a, b in zip(seq, seq[1:])):
            raise DomainError(f"face {seq} is not strictly increasing")
        if seq[0] < 0 or seq[-1] > q:
            raise DomainError(f"face {seq} out of range for target dimension {q}")
        if q > MAX_DIM:
            raise DomainError("dimensions above 3 are not representable")
        p = len(seq) - 1
        skipped = [k for k in range(q + 1) if k not in seq]
        if not skipped:
            raise DomainError(f"face {seq} of dimension {q} skips no vertex")
        F = self.cofaces[(p, skipped[0])]
        for dim, k in enumerate(skipped[1:], start=p + 1):
            F = self._compose(self.cofaces[(dim, k)], F)
        self._faces[(seq, q)] = F
        return F

    def _compose(self, after: CrossedMorphism, before: CrossedMorphism) -> CrossedMorphism:
        """`after` after `before`, composed once per distinct pair of map
        objects and then kept."""
        try:
            return self._composites[(id(after), id(before))][2]
        except KeyError:
            composite = compose_crossed_morphisms(after, before)
            self._composites[(id(after), id(before))] = (after, before, composite)
            return composite


def validate_diagram(D: CrossedDiagram) -> ValidationReport:
    """Levels valid, cofaces valid morphisms, cosimplicial identities hold.

    Each distinct level and coface object is checked once, and its report is
    extended under every position that holds it.  Once all four levels are
    valid, each coface is checked by `validate_crossed_morphism` with
    `ends_valid`, which proves its functoriality and g2 homomorphisms on
    generators; otherwise every pair is walked.  The sides of the
    identities are composed once per distinct pair of cofaces (`_compose`)."""
    report = ValidationReport()
    for p, level_report in enumerate(_once_each(validate_crossed, D.levels)):
        report.extend(level_report, prefix=f"level {p}: ")
    levels_valid = report.ok
    keys = sorted(D.cofaces)
    coface_reports = _once_each(lambda d: validate_crossed_morphism(d, levels_valid),
                                [D.cofaces[key] for key in keys])
    for (p, k), coface_report in zip(keys, coface_reports):
        report.extend(coface_report, prefix=f"coface d^{k} at {p}: ")
    if not report.ok:
        return report
    for p in range(2):
        for j in range(p + 3):
            for i in range(j):
                # d^j . d^i = d^i . d^{j-1} as maps level p -> level p+2
                lhs = D._compose(D.cofaces[(p + 1, j)], D.cofaces[(p, i)])
                rhs = D._compose(D.cofaces[(p + 1, i)], D.cofaces[(p, j - 1)])
                if not crossed_morphisms_equal(lhs, rhs):
                    witness = _first_difference(lhs, rhs)
                    report.add(
                        "cosimplicial-identity",
                        f"d^{j} d^{i} != d^{i} d^{j - 1} out of level {p} (at {witness})",
                    )
    return report


def _once_each(f, objects, memo: dict | None = None):
    """`f(obj)` for each of `objects` in order, run once per distinct object:
    a diagram shares equal levels and maps, and the checks, writers and
    fattenings depend only on the object they get.  `memo` maps the ids of
    the objects done so far to their results; pass one to share it across calls."""
    memo = {} if memo is None else memo
    for obj in objects:
        if id(obj) not in memo:
            memo[id(obj)] = f(obj)
        yield memo[id(obj)]


def _first_difference(F: CrossedMorphism, G: CrossedMorphism) -> str:
    for attr in ("obj_map", "mor1_map", "mor2_map"):
        a, b = getattr(F, attr), getattr(G, attr)
        for key in sorted(a):
            if a[key] != b.get(key):
                return f"{attr[:-4]} {key}: {a[key]} vs {b.get(key)}"
    return "?"


@dataclass
class DiagramMorphism:
    """A levelwise crossed morphism commuting with all cofaces."""

    source: CrossedDiagram
    target: CrossedDiagram
    levels: tuple[CrossedMorphism, CrossedMorphism, CrossedMorphism, CrossedMorphism]

    def __post_init__(self):
        if len(self.levels) != 4:
            raise LoadError("a diagram morphism has exactly four level maps")
        for p, F in enumerate(self.levels):
            if F.source is not self.source.levels[p] or F.target is not self.target.levels[p]:
                raise LoadError(f"level map {p} does not connect the diagrams' levels")


def identity_diagram_morphism(D: CrossedDiagram) -> DiagramMorphism:
    """One identity map per distinct level object of D, held at every level
    that holds the object, as loading shares level maps."""
    return DiagramMorphism(D, D, tuple(_once_each(identity_crossed_morphism, D.levels)))


def validate_diagram_morphism(F: DiagramMorphism) -> ValidationReport:
    """Level maps valid and natural with respect to every coface, then the
    source and target diagrams valid.  Invalid level maps are reported
    alone; each distinct level map is checked once.  The level maps are
    walked over every pair: their ends are validated only after them, so
    `validate_crossed_morphism` cannot be told `ends_valid`."""
    report = ValidationReport()
    for p, level_report in enumerate(_once_each(validate_crossed_morphism, F.levels)):
        report.extend(level_report, prefix=f"level {p}: ")
    if not report.ok:
        return report
    for (p, k) in sorted(F.source.cofaces):
        lhs = F.source._compose(F.levels[p + 1], F.source.cofaces[(p, k)])
        rhs = F.target._compose(F.target.cofaces[(p, k)], F.levels[p])
        if not crossed_morphisms_equal(lhs, rhs):
            report.add(
                "naturality",
                f"level map does not commute with d^{k} at level {p} "
                f"(at {_first_difference(lhs, rhs)})",
            )
    report.extend(validate_diagram(F.source), prefix="source: ")
    report.extend(validate_diagram(F.target), prefix="target: ")
    return report
