"""Finite groupoids as explicit composition tables.

Composition is written ``compose(h, g)`` for "g first, then h"; all tables are
keyed ``(after, before)``.  Structures are immutable after validation and every
operation is pure.  Each groupoid indexes its morphisms by object once, on
construction: the sorted morphisms out of and into each object and the sorted
hom-sets, so the validator walks only composable pairs and triples.
Associativity is proven on a generating set (Light's test); only a table that
fails a check is walked over every composable triple, so that every violated
triple is named.  A derived groupoid (`_LazyTableGroupoid`, a fattening's g1)
makes its composition table only when something reads it whole.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NoReturn

from .validation import (
    ComposabilityError,
    DomainError,
    LoadError,
    ValidationReport,
)

if TYPE_CHECKING:
    from .crossed import FiniteGroup


@dataclass
class FiniteGroupoid:
    """Explicit object/morphism tables with total composition on composable pairs."""

    objects: tuple[str, ...]
    source: dict[str, str]
    target: dict[str, str]
    identities: dict[str, str]  # object -> identity morphism
    table: dict[tuple[str, str], str]  # (after, before) -> composite
    inverses: dict[str, str]
    # per-object index, built once from source/target after the checks
    _morphisms: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _out: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _in: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _homs: dict[tuple[str, str], tuple[str, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        objset = set(self.objects)
        if len(objset) != len(self.objects):
            raise LoadError("duplicate object ids")
        if any(not o for o in self.objects):
            raise LoadError("empty object id")
        if set(self.source) != set(self.target):
            raise LoadError("source/target tables disagree on morphism ids")
        for m in self.source:
            if not m:
                raise LoadError("empty morphism id")
            if self.source[m] not in objset or self.target[m] not in objset:
                raise LoadError(f"morphism {m!r} has endpoints outside the object set")
        morphs = set(self.source)
        for x, e in self.identities.items():
            if x not in objset:
                raise LoadError(f"identity assigned to unknown object {x!r}")
            if e not in morphs:
                raise LoadError(f"identity {e!r} of {x!r} is not a morphism")
        if set(self.identities) != objset:
            raise LoadError("identity table does not cover the object set")
        self._check_table(morphs)
        for m, mi in self.inverses.items():
            if m not in morphs or mi not in morphs:
                raise LoadError(f"inverse entry {m!r} -> {mi!r} has unknown ids")
        if set(self.inverses) != morphs:
            raise LoadError("inverse table does not cover the morphism set")

        self._morphisms = tuple(sorted(morphs))
        out: dict[str, list[str]] = {x: [] for x in self.objects}
        into: dict[str, list[str]] = {x: [] for x in self.objects}
        homs: dict[tuple[str, str], list[str]] = {}
        for m in self._morphisms:
            x, y = self.source[m], self.target[m]
            out[x].append(m)
            into[y].append(m)
            homs.setdefault((x, y), []).append(m)
        self._out = {x: tuple(ms) for x, ms in out.items()}
        self._in = {x: tuple(ms) for x, ms in into.items()}
        self._homs = {xy: tuple(ms) for xy, ms in homs.items()}

    def _check_table(self, morphs: set[str]) -> None:
        for (h, g), r in self.table.items():
            if h not in morphs or g not in morphs or r not in morphs:
                raise LoadError(f"composition entry ({h!r}, {g!r}) -> {r!r} has unknown ids")

    # -- basic accessors -------------------------------------------------

    @property
    def morphisms(self) -> tuple[str, ...]:
        """All morphism ids, sorted."""
        return self._morphisms

    def src(self, m: str) -> str:
        try:
            return self.source[m]
        except KeyError:
            raise DomainError(f"unknown morphism {m!r}") from None

    def dst(self, m: str) -> str:
        try:
            return self.target[m]
        except KeyError:
            raise DomainError(f"unknown morphism {m!r}") from None

    def identity(self, x: str) -> str:
        try:
            return self.identities[x]
        except KeyError:
            raise DomainError(f"unknown object {x!r}") from None

    def compose(self, after: str, before: str) -> str:
        """The composite "before first, then after"."""
        try:
            return self.table[(after, before)]
        except KeyError:
            self._no_composite(after, before)

    def _no_composite(self, after: str, before: str) -> NoReturn:
        """Raise what `compose` raises where the table has no entry."""
        if self.dst(before) != self.src(after):
            raise ComposabilityError(
                f"cannot compose {after!r} after {before!r}: "
                f"{before!r} ends at {self.dst(before)!r} but "
                f"{after!r} starts at {self.src(after)!r}"
            ) from None
        raise LoadError(
            f"composable pair ({after!r}, {before!r}) missing from table"
        ) from None

    def inverse(self, m: str) -> str:
        try:
            return self.inverses[m]
        except KeyError:
            raise DomainError(f"unknown morphism {m!r}") from None

    def compose_all(self, *ms: str) -> str:
        """The composite ms[0] . ms[1] . ... . ms[-1]: ms[-1] first, then
        folded from the right, so ``compose_all(h, g, f)`` is
        ``compose(h, compose(g, f))``."""
        acc = ms[-1]
        for m in reversed(ms[:-1]):
            acc = self.compose(m, acc)
        return acc

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        """All morphisms x -> y, sorted."""
        return self._homs.get((x, y), ())

    def out_of(self, x: str) -> tuple[str, ...]:
        """All morphisms with source x, sorted."""
        try:
            return self._out[x]
        except KeyError:
            raise DomainError(f"unknown object {x!r}") from None

    def into(self, x: str) -> tuple[str, ...]:
        """All morphisms with target x, sorted."""
        try:
            return self._in[x]
        except KeyError:
            raise DomainError(f"unknown object {x!r}") from None

    def contains_morphism(self, m: str) -> bool:
        return m in self.source


class _LazyTableGroupoid(FiniteGroupoid):
    """A groupoid whose composition table, typed by construction, is made by
    `make_table()` the first time something reads `table`, and then kept.
    Until then `compose` asks `lookup(after, before)`, which gives the
    composite, or None where the table would have no entry; once the table
    is made, both callables are dropped with whatever they hold."""

    def __init__(self, objects: tuple[str, ...], source: dict[str, str],
                 target: dict[str, str], identities: dict[str, str], inverses: dict[str, str],
                 make_table: Callable[[], dict[tuple[str, str], str]],
                 lookup: Callable[[str, str], str | None]):
        self.objects, self.source, self.target = objects, source, target
        self.identities, self.inverses = identities, inverses
        self._make_table, self._lookup = make_table, lookup
        self.__post_init__()

    def _check_table(self, morphs: set[str]) -> None:
        pass  # typed by construction, and not made yet

    @functools.cached_property
    def table(self) -> dict[tuple[str, str], str]:
        table = self._make_table()
        self._make_table = self._lookup = None
        return table

    def compose(self, after: str, before: str) -> str:
        if self._lookup is None:
            return super().compose(after, before)
        composite = self._lookup(after, before)
        if composite is None:
            self._no_composite(after, before)
        return composite


def validate_groupoid(G: FiniteGroupoid) -> ValidationReport:
    """Exhaustively check the groupoid axioms, listing every violated instance."""
    report = ValidationReport()
    morphs = G.morphisms

    # composition domain: defined exactly on composable pairs.  Findings are
    # keyed (h, g) and reported in that order.
    domain: list[tuple[tuple[str, str], str, str]] = []
    for h in morphs:
        for g in G.into(G.source[h]):
            r = G.table.get((h, g))
            if r is None:
                domain.append(((h, g), "composition-domain",
                               f"composable pair ({h}, {g}) undefined"))
            elif G.source[r] != G.source[g] or G.target[r] != G.target[h]:
                domain.append((
                    (h, g),
                    "composition-endpoints",
                    f"({h}, {g}) -> {r} has endpoints "
                    f"{G.source[r]} -> {G.target[r]}, expected "
                    f"{G.source[g]} -> {G.target[h]}",
                ))
    for h, g in G.table:
        if G.target[g] != G.source[h]:
            domain.append(((h, g), "composition-domain",
                           f"non-composable pair ({h}, {g}) defined"))
    domain.sort(key=lambda finding: finding[0])
    for _, rule, detail in domain:
        report.add(rule, detail)

    # identities are endomorphisms at their object and two-sided units
    for x, e in G.identities.items():
        if G.source[e] != x or G.target[e] != x:
            report.add("unit-law", f"identity {e} of {x} is not an endomorphism at {x}")
            continue
        for m in sorted(set(G.out_of(x)).union(G.into(x))):
            if G.source[m] == x and G.table.get((m, e)) != m:
                report.add("unit-law", f"{m} . 1_{x} != {m}")
            if G.target[m] == x and G.table.get((e, m)) != m:
                report.add("unit-law", f"1_{x} . {m} != {m}")

    # inverses
    for m in morphs:
        mi = G.inverses[m]
        if G.source[mi] != G.target[m] or G.target[mi] != G.source[m]:
            report.add("inverse-law", f"inverse {mi} of {m} has wrong endpoints")
            continue
        if G.table.get((mi, m)) != G.identities[G.source[m]]:
            report.add("inverse-law", f"{mi} . {m} != identity at {G.source[m]}")
        if G.table.get((m, mi)) != G.identities[G.target[m]]:
            report.add("inverse-law", f"{m} . {mi} != identity at {G.target[m]}")

    # associativity: once the sections above report nothing, Light's test on
    # a generating set proves it; otherwise, or on a counterexample, every
    # composable triple is walked so each violated one is named
    if report.ok and all(_associative_at(G, a) for a in _generators(G)):
        return report
    for g in morphs:
        for h in G.out_of(G.target[g]):
            hg = G.table.get((h, g))
            if hg is None:
                continue
            for k in G.out_of(G.target[h]):
                kh = G.table.get((k, h))
                if kh is None:
                    continue
                lhs = G.table.get((kh, g))
                rhs = G.table.get((k, hg))
                if lhs != rhs:
                    report.add("associativity", f"({k} . {h}) . {g} != {k} . ({h} . {g})")
    return report


def _generators(G: FiniteGroupoid | FiniteGroup) -> tuple[str, ...]:
    """A generating set of a groupoid under its composition table, or of a
    `FiniteGroup` scanned as the one-object groupoid on its elements: over the
    sorted ids, an id that the generators so far do not reach becomes a
    generator.

    The reached set is kept closed under r -> r . s for every generator s
    (`table[(r, s)]`, or `mul_or_none(r, s)` for a group), so every reached
    id is a product of generators whatever the bracketing, and the closure
    does not depend on the order the set is walked in.  Computed afresh on
    every call: the tables are plain dicts that a caller may still change.
    """
    if isinstance(G, FiniteGroupoid):
        ids, table = G.morphisms, G.table

        def product(r: str, s: str) -> str | None:
            return table.get((r, s))
    else:
        ids, product = sorted(G.elements), G.mul_or_none
    gens: list[str] = []
    reached: set[str] = set()
    for m in ids:
        if m in reached:
            continue
        gens.append(m)
        reached.add(m)
        fresh = [m]
        for r in list(reached):
            rm = product(r, m)
            if rm is not None and rm not in reached:
                reached.add(rm)
                fresh.append(rm)
        while fresh:
            r = fresh.pop()
            for s in gens:
                rs = product(r, s)
                if rs is not None and rs not in reached:
                    reached.add(rs)
                    fresh.append(rs)
    return tuple(gens)


def _associative_at(G: FiniteGroupoid, a: str) -> bool:
    """(k . a) . g == k . (a . g) for every composable k and g.

    Light's test: the middles where this holds are closed under composition
    ((k . ab) . g = ((k . a) . b) . g = (k . a) . (b . g) = k . (a . (b . g))
    = k . (ab . g)), so holding on a generating set proves associativity.
    Needs a table defined exactly on composable pairs, with the right endpoints.
    """
    table = G.table
    before = [(g, table[(a, g)]) for g in G.into(G.source[a])]
    for k in G.out_of(G.target[a]):
        ka = table[(k, a)]
        for g, ag in before:
            if table[(ka, g)] != table[(k, ag)]:
                return False
    return True


def pi0_groupoid(G: FiniteGroupoid) -> dict[str, str]:
    """Connected components: maps each object to the least object of its block.

    Objects share a block iff some morphism connects them.
    """
    parent = {x: x for x in G.objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in G.source:
        a, b = find(G.source[m]), find(G.target[m])
        if a != b:
            parent[max(a, b)] = min(a, b)
    # path-compress fully, then relabel each block by its least member
    roots: dict[str, list[str]] = {}
    for x in G.objects:
        roots.setdefault(find(x), []).append(x)
    out = {}
    for members in roots.values():
        label = min(members)
        for x in members:
            out[x] = label
    return out

