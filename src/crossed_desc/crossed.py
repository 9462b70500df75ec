"""Crossed groupoids: a groupoid acting on a family of groups with a feedback.

The structure is a quadruple (g1, g2, twist, feedback): a finite groupoid g1,
a totally disconnected groupoid g2 on the same objects, an action of g1 on g2
by group isomorphisms (the twisting), and a functor g2 -> g1 that is the
identity on objects (the feedback), subject to equivariance and the Peiffer
identity.  This module also computes the homotopy invariants pi0/pi1/pi2,
once per crossed groupoid (they are kept on it) and by one scan for every
level, and decides weak equivalence.  A derived table is a `_View`: a
read-only mapping that computes each entry from the tables it derives
from, built by one factory per derivation.  A derived group is a
`_LazyGroup`: it lists nothing until iterated, and decodes each distinct id
once to decide membership; its `mul` and `inv` answer membership from the
ids it has accepted before they decode one.  A tagged group multiplies through its base's unchecked products, and a
product of table-backed groups through the factors' tables.  A power
of a one-object crossed group (a Čech cover level) has a lazy product group,
an owner view, and twist and feedback views of the base's (`_power_tables`);
the power check reads it through its base.  A fattening's groups, owner
(`_fattened_owner`) and inclusion's 2-morphism map (`_tag_map`) are views of
its base too, and the inclusion of a copy is a weak equivalence by its
marker (`_includes_a_copy`), with no homotopy computed.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .groupoid import FiniteGroupoid, _generators, pi0_groupoid, validate_groupoid
from .validation import DomainError, LoadError, ResourceBoundError, ValidationReport

# Validators are exact, never sampled.  An axiom instance whose full walk would
# take more than this many checks raises ResourceBoundError instead of being
# checked in part.
MAX_CHECKS = 250_000


def _require_checks(count: int, axiom: str) -> None:
    if count > MAX_CHECKS:
        raise ResourceBoundError(
            f"{count} checks of {axiom} exceed the bound of {MAX_CHECKS}"
        )


class FiniteGroup:
    """A finite group on string element ids.

    Multiplication may be table-backed or computed; ``mul(a, b)`` means
    "b first, then a", matching the groupoid composition convention.  A
    table-backed group (`from_table`) keeps its `table` and `inverses`.
    """

    table: dict[tuple[str, str], str] | None = None
    inverses: dict[str, str] | None = None

    def __init__(
        self,
        elements: tuple[str, ...],
        identity: str,
        mul: Callable[[str, str], str],
        inv: Callable[[str], str],
    ):
        self.elements = tuple(elements)
        self.identity = identity
        self._mul = mul
        self._inv = inv
        self._members = frozenset(elements)
        self.factors: tuple[FiniteGroup, ...] = ()  # a product's (`_ProductGroup`)
        if len(self._members) != len(self.elements):
            raise LoadError("duplicate group element ids")
        if identity not in self._members:
            raise LoadError(f"identity {identity!r} is not an element")

    @classmethod
    def from_table(
        cls,
        elements: Iterable[str],
        table: dict[tuple[str, str], str],
        identity: str,
        inverses: dict[str, str],
    ) -> "FiniteGroup":
        elements = tuple(elements)
        members = set(elements)
        for (a, b), r in table.items():
            if a not in members or b not in members or r not in members:
                raise LoadError(f"multiplication entry ({a!r}, {b!r}) -> {r!r} has unknown ids")
        for a, ai in inverses.items():
            if a not in members or ai not in members:
                raise LoadError(f"inverse entry {a!r} -> {ai!r} has unknown ids")

        def mul(a: str, b: str) -> str:
            try:
                return table[(a, b)]
            except KeyError:
                raise LoadError(f"multiplication pair ({a!r}, {b!r}) missing from table") from None

        def inv(a: str) -> str:
            try:
                return inverses[a]
            except KeyError:
                raise LoadError(f"inverse of {a!r} missing from table") from None

        group = cls(elements, identity, mul, inv)
        group.table, group.inverses = table, inverses
        return group

    @classmethod
    def product(cls, factors: list["FiniteGroup"]) -> "FiniteGroup":
        """Direct product; element ids are factor ids joined by "|".

        Operations are coordinatewise, and the factors are kept in `factors`.
        The product is lazy (`_ProductGroup`); its membership splits an id,
        which is sound because no factor id contains "|".
        """
        for f in factors:
            for e in f.elements:
                if "|" in e:
                    raise LoadError(f"factor element id {e!r} contains separator '|'")
        return _ProductGroup(tuple(factors))

    def mul(self, a: str, b: str) -> str:
        if a not in self._members or b not in self._members:
            raise DomainError(f"{a!r} or {b!r} is not an element of this group")
        return self._mul(a, b)

    def mul_or_none(self, a: str | None, b: str | None) -> str | None:
        """``a . b``, or None where it is undefined: `a` or `b` is not an
        element, or a loaded table lacks the pair.  Validators use it so that
        a structure that loaded is reported on, not raised on."""
        if a not in self._members or b not in self._members:
            return None
        try:
            return self._mul(a, b)
        except LoadError:
            return None

    def inv(self, a: str) -> str:
        if a not in self._members:
            raise DomainError(f"{a!r} is not an element of this group")
        return self._inv(a)

    def inv_or_none(self, a: str) -> str | None:
        """``a^-1``, or None where it is undefined: `a` is not an element, or
        a loaded table lacks its inverse.  Used by validators, as `mul_or_none`."""
        if a not in self._members:
            return None
        try:
            return self._inv(a)
        except LoadError:
            return None

    def __contains__(self, a: str) -> bool:
        return a in self._members

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


class _LazyGroup(FiniteGroup):
    """A group that lists its elements, and then keeps a frozen member set,
    only when something iterates it.  Until then `_members` is a weak proxy
    (a reference to self would be a cycle, kept until the cyclic collector
    runs), so membership asks `__contains__`: an id is decoded (`_decodes`)
    once, and each accepted id is remembered."""

    def __init__(self, identity: str, mul: Callable[[str, str], str],
                 inv: Callable[[str], str], factors: tuple[FiniteGroup, ...] = ()):
        self.identity, self._mul, self._inv, self.factors = identity, mul, inv, factors
        self._members, self._accepted = weakref.proxy(self), set()

    @functools.cached_property
    def elements(self) -> tuple[str, ...]:
        elements = tuple(self._listing())
        self._members = self._accepted = frozenset(elements)
        return elements

    def __contains__(self, a) -> bool:
        if a in self._accepted:
            return True
        if isinstance(a, str) and self._decodes(a):
            self._accepted.add(a)
            return True
        return False

    # an id accepted before needs no call of `__contains__`
    def mul(self, a: str, b: str) -> str:
        if a in self._accepted and b in self._accepted:
            return self._mul(a, b)
        return FiniteGroup.mul(self, a, b)

    def inv(self, a: str) -> str:
        if a in self._accepted:
            return self._inv(a)
        return FiniteGroup.inv(self, a)


class _TaggedGroup(_LazyGroup):
    """B's group with every id suffixed by `tag` ("@i"): the group at x@i of
    a fattening.  Membership strips the tag and asks B, so `mul` and `inv`
    pass B's unchecked ones only B's elements."""

    def __init__(self, base: FiniteGroup, tag: str):
        cut = -len(tag)
        super().__init__(base.identity + tag, lambda a, b: base._mul(a[:cut], b[:cut]) + tag,
                         lambda a: base._inv(a[:cut]) + tag)
        self._base, self._tag = base, tag

    def _listing(self):
        return (e + self._tag for e in self._base.elements)

    def _decodes(self, a: str) -> bool:
        return a.endswith(self._tag) and a[:-len(self._tag)] in self._base._members

    def __len__(self) -> int:
        return len(self._base)


class _ProductGroup(_LazyGroup):
    """The direct product of `factors` (`FiniteGroup.product`), listed in
    `itertools.product` order; membership splits an id on "|".  When every
    factor is table-backed, a product or inverse reads the factors' tables
    in one pass; a coordinate the tables lack is computed again factor by
    factor, which raises that factor's `LoadError`."""

    def __init__(self, factors: tuple[FiniteGroup, ...]):
        # `mul` and `inv` pass only elements, so each id has one part per factor
        def mul(a: str, b: str) -> str:
            pairs = zip(factors, a.split("|"), b.split("|"))
            return "|".join(f._mul(x, y) for f, x, y in pairs)

        def inv(a: str) -> str:
            return "|".join(f._inv(x) for f, x in zip(factors, a.split("|")))

        if all(f.table is not None for f in factors):
            tables, inverses = [f.table for f in factors], [f.inverses for f in factors]
            mul_by_factor, inv_by_factor = mul, inv

            def mul(a: str, b: str) -> str:
                try:
                    return "|".join(map(dict.__getitem__, tables,
                                        zip(a.split("|"), b.split("|"))))
                except KeyError:
                    return mul_by_factor(a, b)

            def inv(a: str) -> str:
                try:
                    return "|".join(map(dict.__getitem__, inverses, a.split("|")))
                except KeyError:
                    return inv_by_factor(a)

        super().__init__("|".join(f.identity for f in factors), mul, inv, factors)
        # each factor's member set; a lazy factor's proxy answers also once it is listed
        self._sets = tuple(f._members for f in factors)

    def _listing(self):
        return map("|".join, itertools.product(*(f.elements for f in self.factors)))

    def _decodes(self, a: str) -> bool:
        # the identity first: a product of no factors has one id, of no parts
        return a == self.identity or (len(parts := a.split("|")) == len(self._sets)
                                      and all(map(operator.contains, self._sets, parts)))

    def __len__(self) -> int:
        return math.prod(map(len, self.factors))


def validate_group(G: FiniteGroup) -> ValidationReport:
    """Check the group axioms exactly.  An undefined product is a closure
    violation and an undefined inverse an inverse violation; the other axioms
    skip the instances that need them.

    Units, inverses and closure are walked in full.  When they hold,
    associativity is proven on a generating set (Light's test, as for
    groupoids); otherwise, or on a counterexample, every triple is walked,
    so every violated instance is named."""
    report = ValidationReport()
    n = len(G)
    _require_checks(n * n, "group closure")
    mul, e = G.mul_or_none, G.identity
    for a in G.elements:
        if mul(e, a) not in (None, a) or mul(a, e) not in (None, a):
            report.add("group-unit", f"identity is not a unit at {a}")
        ai = G.inv_or_none(a)
        if ai is None:
            report.add("group-inverse", f"inverse of {a} is undefined")
        elif ai not in G:
            report.add("group-inverse", f"inverse of {a} is not an element")
        elif mul(ai, a) not in (None, e) or mul(a, ai) not in (None, e):
            report.add("group-inverse", f"{a} . {ai} is not the identity")
    for a, b in itertools.product(G.elements, repeat=2):
        ab = mul(a, b)
        if ab is None:
            report.add("group-closure", f"{a} . {b} is undefined")
        elif ab not in G:
            report.add("group-closure", f"{a} . {b} escapes the element set")
    if report.ok:
        gens = _generators(G)
        _require_checks(n * n * len(gens), "group associativity on generators")
        if all(_group_associative_at(G, s) for s in gens):
            return report
    _require_checks(n ** 3, "group associativity")
    for a, b, c in itertools.product(G.elements, repeat=3):
        lhs, rhs = mul(mul(a, b), c), mul(a, mul(b, c))
        if None not in (lhs, rhs) and lhs != rhs:
            report.add("group-associativity", f"({a} . {b}) . {c} != {a} . ({b} . {c})")
    return report


def _group_associative_at(G: FiniteGroup, s: str) -> bool:
    """(a . s) . c == a . (s . c) for every a and c: Light's test with s in
    the middle (`groupoid._associative_at`).  Needs a closed table."""
    mul, elements = G._mul, G.elements
    after = [(c, mul(s, c)) for c in elements]
    for a in elements:
        as_ = mul(a, s)
        for c, sc in after:
            if mul(as_, c) != mul(a, sc):
                return False
    return True


class DisconnectedGroupoid:
    """A totally disconnected groupoid: one finite group per object.

    Element ids must be disjoint across objects, so every 2-morphism knows
    its object: `owner` maps each to it, and an id is an element of the
    group at x exactly when `owner` maps it to x.  So a product taken in one
    group of elements of that group is the checked `mul` here, which the
    descent scans use.  A derived level, whose groups are
    lazy, gives a ready view: a fattening's reads its base's owner
    (`_fattened_owner`), a cover level's asks membership
    (`fixtures._power_level`).
    """

    def __init__(self, groups: dict[str, FiniteGroup], owner: Mapping[str, str] | None = None):
        self.groups = dict(groups)
        if owner is None:
            owner = {}
            for x, g in self.groups.items():
                for e in g.elements:
                    if e in owner:
                        raise LoadError(f"element id {e!r} appears at both {owner[e]!r} and {x!r}")
                    owner[e] = x
        self.owner = owner

    @property
    def objects(self) -> tuple[str, ...]:
        return tuple(sorted(self.groups))

    def group(self, x: str) -> FiniteGroup:
        try:
            return self.groups[x]
        except KeyError:
            raise DomainError(f"unknown object {x!r}") from None

    def object_of(self, a: str) -> str:
        try:
            return self.owner[a]
        except KeyError:
            raise DomainError(f"unknown 2-morphism {a!r}") from None

    # `owner` is read inline; on a miss, `object_of` words the error
    def mul(self, a: str, b: str) -> str:
        try:
            x, y = self.owner[a], self.owner[b]
        except KeyError:
            x, y = self.object_of(a), self.object_of(b)
        if y != x:
            raise DomainError(f"{a!r} and {b!r} live at different objects")
        return self.groups[x].mul(a, b)

    def inv(self, a: str) -> str:
        try:
            x = self.owner[a]
        except KeyError:
            x = self.object_of(a)
        return self.groups[x].inv(a)

    def identity(self, x: str) -> str:
        return self.group(x).identity


class _View(Mapping):
    """A read-only table computed from what it derives from, which `of` names
    (for `_is_view`).  `lookup(key)` answers a key or raises KeyError, also
    on an ill-typed key, as a dict would; `keys()` generates the keys in the
    order an eagerly built dict lists them, and `size()` counts them.  The
    callables must not refer to the view or the structure holding it: that
    cycle would keep both alive until the cyclic collector runs."""

    def __init__(self, of: tuple, lookup: Callable, keys: Callable, size: Callable[[], int]):
        self.of, self.lookup, self._keys, self._size = of, lookup, keys, size

    def __getitem__(self, key):
        return self.lookup(key)

    def __len__(self) -> int:
        return self._size()

    def __iter__(self):
        return self._keys()


def _is_view(table, *of) -> bool:
    """Whether `table` is a `_View` derived from exactly `of`.  Each is
    compared by identity: a view over an equal copy is another table."""
    return (type(table) is _View and len(table.of) == len(of)
            and all(a is b for a, b in zip(table.of, of)))


def _fattened_owner(base: DisconnectedGroupoid, objects: tuple[str, ...], n: int,
                    groups: dict[str, _TaggedGroup]) -> _View:
    """a@i -> x@i when a lives at x in B's g2 `base`.  An id is decoded once:
    its copy is the text after its last "@", an index below n as `str`
    writes it.  A key that is not such an id, a non-string included, misses.
    Keys are listed by object, copy, then element, as a dict built from the
    groups lists them."""
    copies = {str(i): {x: f"{x}@{i}" for x in objects} for i in range(n)}

    def lookup(a) -> str:
        if isinstance(a, str):
            e, at, i = a.rpartition("@")
            copy = copies.get(i) if at else None
            if copy is not None and (y := copy.get(base.owner.get(e))) is not None:
                return y
        raise KeyError(a)

    return _View((base,), lookup,
                 lambda: (e + grp._tag for grp in groups.values() for e in grp._base.elements),
                 lambda: sum(map(len, groups.values())))


def _tag_map(base: CrossedGroupoid, tag: str) -> _View:
    """a -> a + tag on the 2-morphisms of `base`: the 2-morphism map of the
    inclusion of copy i into `fatten(base, n)` (tag "@i"), listed in the
    order of `base.g2.owner`."""

    def lookup(a) -> str:
        if a in base.g2.owner:
            return a + tag
        raise KeyError(a)

    return _View((base,), lookup, lambda: iter(base.g2.owner), lambda: len(base.g2.owner))


@dataclass
class CrossedGroupoid:
    """The quadruple (g1, g2, twist, feedback)."""

    g1: FiniteGroupoid
    g2: DisconnectedGroupoid
    # dicts, typed here; or, on a fattening or a cover level, `_View`s that
    # compute each entry from the base and miss on an ill-typed key
    # (`fixtures._fattened_tables`, `_power_tables`).  Such a level's g2 has
    # lazy groups and an owner view too
    twist_table: Mapping[tuple[str, str], str]
    feedback_table: Mapping[str, str]
    # (base, k) on a cover level that is the k-fold power of a one-object base,
    # whose group and owner list nothing until read; only
    # `fixtures._power_level` sets it, and validate_crossed checks it
    power: tuple[CrossedGroupoid, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # (base, n) on `fatten(base, n)`, whose ids tag the base's as x@i, m@i.j
    # and a@i; only `fatten` sets it, and `is_weak_equivalence_crossed`
    # recognises the inclusion of a copy by it (`_includes_a_copy`)
    fattening: tuple[CrossedGroupoid, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # pi0/pi1/pi2, computed by `homotopy` on first use, then kept
    _homotopy: HomotopyData | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        # reads the tables directly: an unknown id is a typing error here.  A
        # view is typed by construction, so only dict tables are walked.
        source, target, owner = self.g1.source, self.g1.target, self.g2.owner
        if set(self.g1.objects) != set(self.g2.objects):
            raise LoadError(
                "object sets of the groupoid and the group family disagree"
            )
        if isinstance(self.twist_table, dict):
            order = {x: len(grp) for x, grp in self.g2.groups.items()}
            if len(self.twist_table) != sum(order[x] for x in source.values()):
                raise LoadError("twist table is not total on (1-morphism, 2-morphism) pairs")
            for (g, a), r in self.twist_table.items():
                x = source.get(g)
                if x is None:
                    raise LoadError(f"twist key uses unknown 1-morphism {g!r}")
                if owner.get(a) != x:
                    raise LoadError(f"twist key ({g!r}, {a!r}) is ill-typed")
                if owner.get(r) != target[g]:
                    raise LoadError(f"twist value of ({g!r}, {a!r}) lands at the wrong object")
        if isinstance(self.feedback_table, dict):
            if self.feedback_table.keys() != owner.keys():
                raise LoadError("feedback table does not cover the 2-morphisms")
            for a, r in self.feedback_table.items():
                if r not in source:
                    raise LoadError(f"feedback of {a!r} is not a 1-morphism")

    @property
    def objects(self) -> tuple[str, ...]:
        return tuple(self.g1.objects)

    def twist(self, g: str, a: str) -> str:
        """Push the 2-morphism `a` along the 1-morphism `g` (action lookup).

        The table holds only well-typed keys, so a hit needs no check; a
        miss is checked here and raises the checked error."""
        try:
            return self.twist_table[(g, a)]
        except KeyError:
            pass
        if self.g2.object_of(a) != self.g1.src(g):
            raise DomainError(
                f"2-morphism {a!r} lives at {self.g2.object_of(a)!r}, "
                f"not at the source of {g!r}"
            )
        return self.twist_table[(g, a)]

    def feedback(self, a: str) -> str:
        """The 1-endomorphism underlying the 2-morphism `a`."""
        try:
            return self.feedback_table[a]
        except KeyError:
            raise DomainError(f"unknown 2-morphism {a!r}") from None

    def twist_row(self, g: str) -> dict[str, str]:
        """{a: twist(g, a)} for every 2-morphism a at the source of g, in the
        order of that group's elements, each read through the table's lookup;
        empty when g is not a 1-morphism."""
        x = self.g1.source.get(g)
        grp = () if x is None else self.g2.groups[x].elements
        return {a: self.twist_table[(g, a)] for a in grp}


def validate_crossed(C: CrossedGroupoid) -> ValidationReport:
    """Check all crossed-groupoid axioms exactly, citing every violated
    instance; a cover level is checked through its base (`_validate_power`).
    An instance whose inputs are undefined or mistyped is skipped: the
    groupoid validator or another rule here already names them.

    Each law over pairs is proven on a generating set once the laws its
    proof rests on have passed (Light's test, as for associativity): the twist
    action on generators of g1, and the twist homomorphisms, the feedback
    functor and the Peiffer identity on generators of each g2 group.  When a
    precondition or a generator fails, every pair is walked, so every
    violated instance is named."""
    if C.power is not None:
        return _validate_power(C, *C.power)
    report = ValidationReport()
    g1_report = validate_groupoid(C.g1)
    report.extend(g1_report)
    gens: dict[str, tuple[str, ...]] = {}  # generators of the valid g2 groups
    for x in C.g2.objects:
        group_report = validate_group(C.g2.group(x))
        report.extend(group_report, prefix=f"g2({x}): ")
        if group_report.ok:
            gens[x] = _generators(C.g2.group(x))

    g1, tw, fb = C.g1, C.twist_table, C.feedback_table
    n_action = sum(
        len(g1.out_of(x)) * sum(len(C.g2.group(g1.source[g])) for g in g1.into(x))
        for x in C.objects
    )
    _require_checks(n_action, "the twist action")
    _require_checks(len(tw), "equivariance")

    # twisting is an action by group isomorphisms; twist(g, -) is proven a
    # homomorphism on generators when the groups at both ends are valid
    for x in C.objects:
        e = g1.identities[x]
        for a in C.g2.group(x):
            r = tw.get((e, a))
            if r is not None and r != a:
                report.add("twist-unit", f"twist(1_{x}, {a}) != {a}")
    hom_ok = True
    for g in g1.morphisms:
        x, y = g1.source[g], g1.target[g]
        grp, image = C.g2.group(x), C.g2.group(y)
        row = C.twist_row(g)
        if len(set(row.values())) != len(grp):
            report.add("twist-bijective", f"twist({g}, -) is not injective")
        if x in gens and y in gens:
            _require_checks(len(grp) * len(gens[x]), "a twist homomorphism on generators")
            if _multiplicative_on(grp, gens[x], row, image._mul):
                continue
        _require_checks(len(grp) ** 2, "a twist homomorphism")
        for a, b in itertools.product(grp.elements, repeat=2):
            lhs = tw.get((g, grp.mul_or_none(a, b)))
            rhs = image.mul_or_none(row[a], row[b])
            if None not in (lhs, rhs) and lhs != rhs:
                hom_ok = False
                report.add(
                    "twist-homomorphism",
                    f"twist({g}, {a} . {b}) != twist({g}, {a}) . twist({g}, {b})",
                )

    # the action law: proven on generators of a valid g1 (`_acts_at`); walked
    # over every composable pair otherwise, so each violated instance is named
    action_ok = g1_report.ok and all(_acts_at(C, g) for g in _generators(g1))
    if not action_ok:
        walked = len(report)
        for h in g1.morphisms:
            for g in g1.into(g1.source[h]):
                hg = g1.table.get((h, g))
                for a in C.g2.group(g1.source[g]):
                    lhs = tw.get((hg, a))
                    if lhs is not None and lhs != tw[(h, tw[(g, a)])]:
                        report.add(
                            "twist-action",
                            f"twist({h} . {g}, {a}) != twist({h}, twist({g}, {a}))",
                        )
        action_ok = len(report) == walked

    # feedback is a functor landing in automorphism groups; proven on
    # generators when g1 and the group are valid and the endpoints hold
    functor_ok: dict[str, bool] = {}
    for x in C.objects:
        grp = C.g2.group(x)
        checked = len(report)
        if fb[grp.identity] != g1.identities[x]:
            report.add("feedback-unit", f"feedback(1) != 1_{x}")
        strays = [a for a in grp if g1.source[fb[a]] != x or g1.target[fb[a]] != x]
        for a in strays:
            report.add("feedback-endpoints", f"feedback({a}) is not an endomorphism at {x}")
        proven = False
        if g1_report.ok and x in gens and not strays:
            _require_checks(len(grp) * len(gens[x]), "the feedback functor on generators")
            proven = _multiplicative_on(grp, gens[x], fb, g1.compose)
        if not proven:
            _require_checks(len(grp) ** 2, "the feedback functor")
            for a, b in itertools.product(grp.elements, repeat=2):
                lhs, rhs = fb.get(grp.mul_or_none(a, b)), g1.table.get((fb[a], fb[b]))
                if None not in (lhs, rhs) and lhs != rhs:
                    report.add(
                        "feedback-functor",
                        f"feedback({a} . {b}) != feedback({a}) . feedback({b})",
                    )
        functor_ok[x] = len(report) == checked

    # equivariance: feedback(twist(g, a)) = g . feedback(a) . g^-1
    for (g, a), r in tw.items():
        rhs = g1.table.get((g1.table.get((g, fb[a])), g1.inverses[g]))
        if rhs is not None and fb[r] != rhs:
            report.add(
                "equivariance",
                f"feedback(twist({g}, {a})) != {g} . feedback({a}) . {g}^-1",
            )

    # Peiffer: twist(feedback(a), b) = a . b . a^-1, proven on generators a
    # (`_peiffer_at`) once the laws its proof rests on hold
    premises_hold = g1_report.ok and action_ok and hom_ok
    for x in C.objects:
        grp = C.g2.group(x)
        if premises_hold and x in gens and functor_ok[x]:
            _require_checks(len(grp) * len(gens[x]), "the Peiffer identity on generators")
            if _peiffer_at(C, x, gens[x]):
                continue
        _require_checks(len(grp) ** 2, "the Peiffer identity")
        for a, b in itertools.product(grp.elements, repeat=2):
            lhs = tw.get((fb[a], b))
            rhs = grp.mul_or_none(grp.mul_or_none(a, b), grp.inv_or_none(a))
            if None not in (lhs, rhs) and lhs != rhs:
                report.add(
                    "peiffer",
                    f"twist(feedback({a}), {b}) != {a} . {b} . {a}^-1",
                )
    return report


def _multiplicative_on(
    grp: FiniteGroup,
    gens: Iterable[str],
    f: dict[str, str],
    mul: Callable[[str, str], str],
) -> bool:
    """f(b . s) == mul(f(b), f(s)) for every b in grp and every s in gens.

    The s where this holds are closed under products when grp and `mul` are
    associative (f(b . st) = f(bs . t) = f(bs) . f(t) = f(b) . f(s) . f(t) =
    f(b) . f(st)), so holding on a generating set of grp proves f a
    homomorphism.  Needs a valid grp, f defined on it and `mul` total on its
    images."""
    grp_mul = grp._mul
    for s in gens:
        fs = f[s]
        for b in grp.elements:
            if f[grp_mul(b, s)] != mul(f[b], fs):
                return False
    return True


def _acts_at(C: CrossedGroupoid, g: str) -> bool:
    """twist(h . g, a) == twist(h, twist(g, a)) for every h after g and every a.

    The 1-morphisms where this holds are closed under composition once g1 is
    associative (twist(h . g'g, a) = twist(h . g', twist(g, a)) =
    twist(h, twist(g', twist(g, a))) = twist(h, twist(g'g, a))), so holding on
    a generating set of g1 proves the action.  Needs a valid g1."""
    g1, tw = C.g1, C.twist_table
    pushed = [(a, tw[(g, a)]) for a in C.g2.group(g1.source[g])]
    for h in g1.out_of(g1.target[g]):
        hg = g1.table[(h, g)]
        for a, ga in pushed:
            if tw[(hg, a)] != tw[(h, ga)]:
                return False
    return True


def _peiffer_at(C: CrossedGroupoid, x: str, gens: Iterable[str]) -> bool:
    """twist(feedback(a), b) == a . b . a^-1 for every a in gens and every b.

    The a where this holds are closed under products once feedback is a
    functor and twisting an action (twist(feedback(ac), b) =
    twist(feedback(a), twist(feedback(c), b)) = a . c b c^-1 . a^-1), so
    holding on a generating set of the group at x proves the identity.
    Needs a valid g1 and group at x, and feedback endomorphisms at x."""
    grp, tw, fb = C.g2.group(x), C.twist_table, C.feedback_table
    mul = grp._mul
    for a in gens:
        fa, ai = fb[a], grp._inv(a)
        for b in grp.elements:
            if tw[(fa, b)] != mul(mul(a, b), ai):
                return False
    return True


# -- powers of a one-object crossed group -------------------------------


def _power_tables(base: CrossedGroupoid, g1: FiniteGroupoid,
                  grp: FiniteGroup) -> tuple[_View, _View]:
    """The twist and feedback tables of the power of the one-object crossed
    group B (`base`) with g1 `g1` and group `grp`, computed from B's
    coordinatewise: twist(g1|...|gk, a1|...|ak) = twist_B(g1, a1)|...|twist_B(gk, ak)
    and feedback(a1|...|ak) = feedback_B(a1)|...|feedback_B(ak).  A key hits
    only when its 1-morphism is one of `g1`'s and its 2-morphism an element
    of `grp`, so an ill-typed key misses as in a dict.  Twist keys are listed
    by 1-morphism, then element; feedback keys in the order of `grp`."""

    def twist(key) -> str:
        g, a = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
        if g not in g1.source or a not in grp:
            raise KeyError(key)
        return "|".join(map(base.twist_table.__getitem__, zip(g.split("|"), a.split("|"))))

    def twist_keys():
        for g in g1.source:
            yield from zip(itertools.repeat(g), grp.elements)

    def feedback(a) -> str:
        if a not in grp:
            raise KeyError(a)
        return "|".join(map(base.feedback_table.__getitem__, a.split("|")))

    return (_View((base, g1, grp), twist, twist_keys, lambda: len(g1.source) * len(grp)),
            _View((base, grp), feedback, lambda: iter(grp.elements), grp.__len__))


def _validate_power(C: CrossedGroupoid, base: CrossedGroupoid, k: int) -> ValidationReport:
    """Check a level marked as the k-fold power of a one-object base: the base
    is valid, the g2 group is `FiniteGroup.product` of k copies of the base's
    (coordinatewise by construction), and every entry of the g1 table,
    inverses, twist and feedback is the coordinatewise base value on the
    "|"-joined ids.  A power of a valid crossed group is valid, so this is exact.

    A twist or feedback table that is the level's own view (`_power_tables`
    over this base, g1 and group, `_is_view`) computes every entry from the
    base's current tables, so it holds the values the walk expects and is
    not walked; any other table, a dict put in its place included, is walked
    entry by entry."""
    report = ValidationReport()
    report.extend(validate_crossed(base), prefix="base: ")
    if not report.ok:
        return report
    (x,) = base.objects
    if C.objects != (x,):
        report.add("power-objects", f"objects {list(C.objects)} are not the base's [{x}]")
        return report
    grp, g1, base_grp = C.g2.group(x), C.g1, base.g2.group(x)
    if len(grp.factors) != k or any(f is not base_grp for f in grp.factors):
        report.add("power-g2", f"g2({x}) is not the {k}-fold power of the base's group")
        return report
    ids = sorted("|".join(c) for c in itertools.product(base.g1.morphisms, repeat=k))
    if any("|" in m for m in base.g1.morphisms) or tuple(ids) != g1.morphisms:
        report.add("power-g1", f"the 1-morphisms are not the {k}-fold powers of the base's")
        return report

    def power(f, *ids: str) -> str:
        return "|".join(map(f, *(i.split("|") for i in ids)))

    def check(rule: str, what: str, got, want: str) -> None:
        if got != want:
            report.add(rule, f"{what} is {got}, expected {want}")

    # the expected values: the level's own views over this base, g1 and group
    want_twist, want_feedback = _power_tables(base, g1, grp)
    walk_twist = not _is_view(C.twist_table, *want_twist.of)
    check("power-g1", f"1_{x}", g1.identities.get(x), "|".join([base.g1.identities[x]] * k))
    for m in g1.morphisms:
        check("power-g1", f"{m}^-1", g1.inverses.get(m), power(base.g1.inverses.get, m))
        for n in g1.morphisms:
            check("power-g1", f"{m} . {n}", g1.table.get((m, n)),
                  power(lambda h, g: base.g1.table[(h, g)], m, n))
        if walk_twist:
            for a in grp:
                check("power-twist", f"twist({m}, {a})", C.twist_table.get((m, a)),
                      want_twist[(m, a)])
    if not _is_view(C.feedback_table, *want_feedback.of):
        for a in grp:
            check("power-feedback", f"feedback({a})", C.feedback_table.get(a), want_feedback[a])
    return report


# -- morphisms ----------------------------------------------------------


@dataclass
class CrossedMorphism:
    """A map of crossed groupoids: compatible object, 1- and 2-morphism maps."""

    source: CrossedGroupoid
    target: CrossedGroupoid
    obj_map: dict[str, str]
    mor1_map: dict[str, str]
    # a dict, or on a fattening's inclusion the `_View` a -> a@0 (`_tag_map`)
    mor2_map: Mapping[str, str]

    def apply_obj(self, x: str) -> str:
        try:
            return self.obj_map[x]
        except KeyError:
            raise DomainError(f"object {x!r} outside the morphism's domain") from None

    def apply_mor1(self, g: str) -> str:
        try:
            return self.mor1_map[g]
        except KeyError:
            raise DomainError(f"1-morphism {g!r} outside the morphism's domain") from None

    def apply_mor2(self, a: str) -> str:
        try:
            return self.mor2_map[a]
        except KeyError:
            raise DomainError(f"2-morphism {a!r} outside the morphism's domain") from None


def identity_crossed_morphism(C: CrossedGroupoid) -> CrossedMorphism:
    return CrossedMorphism(
        C,
        C,
        {x: x for x in C.objects},
        {m: m for m in C.g1.source},
        {a: a for a in C.g2.owner},
    )


def compose_crossed_morphisms(F2: CrossedMorphism, F1: CrossedMorphism) -> CrossedMorphism:
    """F2 after F1."""
    if F1.target is not F2.source:
        raise DomainError("crossed morphisms are not composable")
    return CrossedMorphism(
        F1.source,
        F2.target,
        {x: F2.apply_obj(y) for x, y in F1.obj_map.items()},
        {m: F2.apply_mor1(n) for m, n in F1.mor1_map.items()},
        {a: F2.apply_mor2(b) for a, b in F1.mor2_map.items()},
    )


def crossed_morphisms_equal(F: CrossedMorphism, G: CrossedMorphism) -> bool:
    return (
        F.obj_map == G.obj_map
        and F.mor1_map == G.mor1_map
        and F.mor2_map == G.mor2_map
    )


def validate_crossed_morphism(F: CrossedMorphism, ends_valid: bool = False) -> ValidationReport:
    """Check functoriality and compatibility with twist and feedback.

    Images are read from the maps and the target's tables; an instance whose
    images are undefined or mistyped is skipped, because another rule names it.
    Every pair is walked unless `ends_valid`, which a caller that has
    validated the source and target can pass: then, once the images are
    typed, g1 functoriality (`_functorial_at`) and each g2 homomorphism
    (`_multiplicative_on`) are proven on generating sets of the source, and a
    law whose precondition or generator fails is walked over every pair."""
    report = ValidationReport()
    S, T = F.source, F.target
    obj, mor1, mor2 = F.obj_map, F.mor1_map, F.mor2_map
    target_objects = set(T.objects)
    for x in S.objects:
        if obj.get(x) not in target_objects:
            report.add("morphism-objects", f"image of object {x} is unknown")
            return report
    gens = {x: _generators(S.g2.group(x)) for x in S.objects} if ends_valid else {}
    for x in S.objects:
        n = len(S.g2.group(x))
        if ends_valid:
            _require_checks(n * len(gens[x]), f"the g2 homomorphism at {x} on generators")
        else:
            _require_checks(n * n, f"the g2 homomorphism at {x}")
    _require_checks(len(S.twist_table), "twist compatibility")
    _require_checks(len(S.feedback_table), "feedback compatibility")
    # g1 functoriality
    for m in S.g1.morphisms:
        fm = mor1.get(m)
        if not T.g1.contains_morphism(fm):
            report.add("morphism-g1", f"image of {m} is not a 1-morphism")
            continue
        if T.g1.src(fm) != obj[S.g1.src(m)] or T.g1.dst(fm) != obj[S.g1.dst(m)]:
            report.add("morphism-g1", f"image of {m} has wrong endpoints")
    for x in S.objects:
        if mor1.get(S.g1.identity(x)) != T.g1.identity(obj[x]):
            report.add("morphism-g1", f"identity at {x} not preserved")
    if not (ends_valid and report.ok
            and all(_functorial_at(F, s) for s in _generators(S.g1))):
        for (h, g), r in S.g1.table.items():
            if T.g1.table.get((mor1.get(h), mor1.get(g))) != mor1.get(r):
                report.add("morphism-g1", f"composition ({h}, {g}) not preserved")
    # g2 homomorphisms per object
    for x in S.objects:
        grp = S.g2.group(x)
        tgrp = T.g2.group(obj[x])
        strays = [a for a in grp if mor2.get(a) not in tgrp]
        for a in strays:
            report.add("morphism-g2", f"image of {a} is not at the image object")
        if mor2.get(grp.identity) != tgrp.identity:
            report.add("morphism-g2", f"unit of g2({x}) not preserved")
        if ends_valid and not strays and _multiplicative_on(grp, gens[x], mor2, tgrp._mul):
            continue
        _require_checks(len(grp) ** 2, f"the g2 homomorphism at {x}")
        for a, b in itertools.product(grp.elements, repeat=2):
            ab, rhs = grp.mul_or_none(a, b), tgrp.mul_or_none(mor2.get(a), mor2.get(b))
            if None not in (ab, rhs) and mor2.get(ab) != rhs:
                report.add("morphism-g2", f"product {a} . {b} at {x} not preserved")
    # twist and feedback compatibility
    for (g, a), r in S.twist_table.items():
        rhs = T.twist_table.get((mor1.get(g), mor2.get(a)))
        if rhs is not None and mor2.get(r) != rhs:
            report.add("morphism-twist", f"twist({g}, {a}) not preserved")
    for a, d in S.feedback_table.items():
        rhs = T.feedback_table.get(mor2.get(a))
        if rhs is not None and mor1.get(d) != rhs:
            report.add("morphism-feedback", f"feedback({a}) not preserved")
    return report


def _functorial_at(F: CrossedMorphism, s: str) -> bool:
    """F(m . s) == F(m) . F(s) for every 1-morphism m after s.

    The s where this holds are closed under composition when both g1 are
    associative (F(m . st) = F(ms . t) = F(ms) . F(t) = F(m) . F(s) . F(t) =
    F(m) . F(st)), so holding on a generating set of the source's g1 proves
    functoriality.  Needs valid ends and images with the right endpoints."""
    S, T, mor1 = F.source.g1, F.target.g1, F.mor1_map
    fs = mor1[s]
    for m in S.out_of(S.target[s]):
        if T.table[(mor1[m], fs)] != mor1[S.table[(m, s)]]:
            return False
    return True


# -- homotopy invariants ------------------------------------------------


@dataclass
class Pi1:
    """The cokernel of the feedback at one object, as a group on coset reps."""

    reps: tuple[str, ...]
    coset_of: dict[str, str]  # automorphism -> canonical representative
    group: FiniteGroup


@dataclass
class HomotopyData:
    pi0: dict[str, str]
    pi1: dict[str, Pi1]
    pi2: dict[str, tuple[str, ...]]  # kernel of the feedback, sorted


def homotopy(C: CrossedGroupoid) -> HomotopyData:
    """Components of g1, cokernels and kernels of the feedback per object,
    scanned from C's own groups and feedback table, whether C was built or
    loaded.  Computed on the first call and kept on C, so later calls
    return the same object."""
    if C._homotopy is not None:
        return C._homotopy
    fb, pi1, pi2 = C.feedback_table, {}, {}
    for x in C.objects:
        grp, one = C.g2.group(x), C.g1.identity(x)
        pi1[x] = _pi1(C.g1, x, {fb[a] for a in grp})
        pi2[x] = tuple(sorted(a for a in grp if fb[a] == one))
    C._homotopy = HomotopyData(pi0_groupoid(C.g1), pi1, pi2)
    return C._homotopy


def _pi1(g1: FiniteGroupoid, x: str, image: Iterable[str]) -> Pi1:
    """The automorphisms at x modulo the feedback image there, on the least
    member of each coset."""
    image = sorted(image)
    coset_of: dict[str, str] = {}
    for g in g1.hom(x, x):
        if g in coset_of:
            continue
        members = sorted(g1.compose(g, d) for d in image)
        rep = members[0]
        for m in members:
            coset_of[m] = rep
    one = g1.identity(x)
    if one not in coset_of:
        raise DomainError(
            f"identity {one!r} at {x!r} lies in no coset of the feedback image"
        )
    reps = tuple(sorted(set(coset_of.values())))

    def mul(a: str, b: str) -> str:
        return coset_of[g1.compose(a, b)]

    def inv(a: str) -> str:
        return coset_of[g1.inverse(a)]

    return Pi1(reps, coset_of, FiniteGroup(reps, coset_of[one], mul, inv))


def _includes_a_copy(F: CrossedMorphism) -> bool:
    """Whether F is the inclusion of copy i into `fatten(S, n)` of its
    source S, as `fatten` makes it: the target is marked as that fattening,
    the 2-morphism map is S's own tag view a -> a@i (`_tag_map`, `_is_view`),
    x maps to x@i and m to m@i.i.  A tag map's tag is what it appends to any
    id, here an identity."""
    S, T = F.source, F.target
    if not (S.objects and T.fattening is not None and T.fattening[0] is S
            and _is_view(F.mor2_map, S)):
        return False
    one = S.g2.identity(S.objects[0])
    tag = F.mor2_map[one][len(one):]
    return (tag in [f"@{i}" for i in range(T.fattening[1])]
            and F.obj_map == {x: x + tag for x in S.objects}
            and F.mor1_map == {m: f"{m}{tag}.{tag[1:]}" for m in S.g1.source})


def is_weak_equivalence_crossed(F: CrossedMorphism) -> tuple[bool, ValidationReport]:
    """True iff F induces a pi0 bijection and pi1/pi2 isomorphisms everywhere.

    The report names every failing invariant at every object; a map that is
    not functorial on objects or automorphisms is reported there, not raised.

    The inclusion of a copy into a fattening of its source
    (`_includes_a_copy`) induces bijections on pi0, pi1 and pi2 by
    construction, so it is a weak equivalence with no homotopy computed on
    either side.  Every other map is scanned: the invariants of both ends
    (`homotopy`) are compared object by object.
    """
    report = ValidationReport()
    if _includes_a_copy(F):
        return True, report
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
        kernel = hs.pi2[x]
        images = [F.apply_mor2(a) for a in kernel]
        if len(set(images)) != len(images):
            report.add("pi2", f"induced map on pi2 at {x} is not injective")
        if set(images) != set(ht.pi2[y]):
            report.add("pi2", f"induced map on pi2 at {x} is not surjective")
    return report.ok, report
