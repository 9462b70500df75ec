"""Crossed groupoids: a groupoid acting on a family of groups with a feedback.

The structure is a quadruple (g1, g2, twist, feedback): a finite groupoid g1,
a totally disconnected groupoid g2 on the same objects, an action of g1 on g2
by group isomorphisms (the twisting), and a functor g2 -> g1 that is the
identity on objects (the feedback), subject to equivariance and the Peiffer
identity.  This module also computes the homotopy invariants pi0/pi1/pi2 and
decides weak equivalence.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from .groupoid import FiniteGroupoid, pi0_blocks, pi0_groupoid, validate_groupoid
from .validation import DomainError, LoadError, ValidationReport

# Above this many checks per axiom, validators fall back to a seeded
# deterministic sample of the same size.  Exhaustiveness is guaranteed for
# every structure small enough to matter; the bound only kicks in for large
# product groups where the axioms hold by construction.
DEFAULT_CHECK_BOUND = 250_000


def _bounded(pairs: Iterable, count: int, bound: int, seed: str):
    """All of `pairs` if count <= bound, else a seeded sample of size bound.

    `pairs` must be a re-iterable or a callable returning a fresh iterator.
    """
    if count <= bound:
        yield from pairs() if callable(pairs) else pairs
        return
    it = pairs() if callable(pairs) else iter(pairs)
    rng = random.Random(seed)
    # reservoir-free: take a random subset of indices, single pass
    keep = set(rng.sample(range(count), bound))
    for i, p in enumerate(it):
        if i in keep:
            yield p


def _bounded_product(lists, bound: int, seed: str):
    """The full Cartesian product of `lists` if small enough, else a seeded
    sample of `bound` distinct tuples drawn by index (no full pass)."""
    lists = [l if isinstance(l, (list, tuple)) else list(l) for l in lists]
    count = 1
    for l in lists:
        count *= len(l)
    if count <= bound:
        yield from itertools.product(*lists)
        return
    rng = random.Random(seed)
    seen = set()
    while len(seen) < bound:
        idx = tuple(rng.randrange(len(l)) for l in lists)
        if idx in seen:
            continue
        seen.add(idx)
        yield tuple(l[i] for l, i in zip(lists, idx))


class FiniteGroup:
    """A finite group on string element ids.

    Multiplication may be table-backed or computed; ``mul(a, b)`` means
    "b first, then a", matching the groupoid composition convention.
    """

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

        g = cls(elements, identity, mul, inv)
        g.table = table
        g.inverses = inverses
        return g

    @classmethod
    def product(cls, factors: list["FiniteGroup"], sep: str = "|") -> "FiniteGroup":
        """Direct product; element ids are factor ids joined by `sep`."""
        for f in factors:
            for e in f.elements:
                if sep in e:
                    raise LoadError(f"factor element id {e!r} contains separator {sep!r}")
        elements = tuple(
            sep.join(combo)
            for combo in itertools.product(*(f.elements for f in factors))
        )
        identity = sep.join(f.identity for f in factors)
        n = len(factors)

        def mul(a: str, b: str) -> str:
            xs, ys = a.split(sep), b.split(sep)
            if len(xs) != n or len(ys) != n:
                raise DomainError("product element id has wrong arity")
            return sep.join(f._mul(x, y) for f, x, y in zip(factors, xs, ys))

        def inv(a: str) -> str:
            xs = a.split(sep)
            if len(xs) != n:
                raise DomainError("product element id has wrong arity")
            return sep.join(f._inv(x) for f, x in zip(factors, xs))

        return cls(elements, identity, mul, inv)

    def mul(self, a: str, b: str) -> str:
        if a not in self._members or b not in self._members:
            raise DomainError(f"{a!r} or {b!r} is not an element of this group")
        return self._mul(a, b)

    def inv(self, a: str) -> str:
        if a not in self._members:
            raise DomainError(f"{a!r} is not an element of this group")
        return self._inv(a)

    def __contains__(self, a: str) -> bool:
        return a in self._members

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def validate_group(G: FiniteGroup, bound: int = DEFAULT_CHECK_BOUND) -> ValidationReport:
    """Check the group axioms; exhaustive up to `bound` checks per axiom."""
    report = ValidationReport()
    n = len(G)
    for a in _bounded(lambda: iter(G.elements), n, bound, "unit"):
        if G.mul(G.identity, a) != a or G.mul(a, G.identity) != a:
            report.add("group-unit", f"identity is not a unit at {a}")
        ai = G.inv(a)
        if ai not in G:
            report.add("group-inverse", f"inverse of {a} is not an element")
        elif G.mul(ai, a) != G.identity or G.mul(a, ai) != G.identity:
            report.add("group-inverse", f"{a} . {ai} is not the identity")
    for a, b in _bounded_product([G.elements, G.elements], bound, "closure"):
        if G.mul(a, b) not in G:
            report.add("group-closure", f"{a} . {b} escapes the element set")
    for a, b, c in _bounded_product([G.elements] * 3, bound, "assoc"):
        if G.mul(G.mul(a, b), c) != G.mul(a, G.mul(b, c)):
            report.add("group-associativity", f"({a} . {b}) . {c} != {a} . ({b} . {c})")
    return report


class DisconnectedGroupoid:
    """A totally disconnected groupoid: one finite group per object.

    Element ids must be disjoint across objects, so every 2-morphism knows
    its object.
    """

    def __init__(self, groups: dict[str, FiniteGroup]):
        self.groups = dict(groups)
        self.owner: dict[str, str] = {}
        for x, g in self.groups.items():
            for e in g.elements:
                if e in self.owner:
                    raise LoadError(
                        f"element id {e!r} appears at both {self.owner[e]!r} and {x!r}"
                    )
                self.owner[e] = x

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

    def mul(self, a: str, b: str) -> str:
        x = self.object_of(a)
        if self.object_of(b) != x:
            raise DomainError(f"{a!r} and {b!r} live at different objects")
        return self.groups[x].mul(a, b)

    def inv(self, a: str) -> str:
        return self.groups[self.object_of(a)].inv(a)

    def identity(self, x: str) -> str:
        return self.group(x).identity


@dataclass
class CrossedGroupoid:
    """The quadruple (g1, g2, twist, feedback)."""

    g1: FiniteGroupoid
    g2: DisconnectedGroupoid
    twist_table: dict[tuple[str, str], str]
    feedback_table: dict[str, str]

    def __post_init__(self):
        if set(self.g1.objects) != set(self.g2.objects):
            raise LoadError(
                "object sets of the groupoid and the group family disagree"
            )
        expected = 0
        for g in self.g1.source:
            expected += len(self.g2.group(self.g1.source[g]))
        if len(self.twist_table) != expected:
            raise LoadError("twist table is not total on (1-morphism, 2-morphism) pairs")
        for (g, a), r in self.twist_table.items():
            if not self.g1.contains_morphism(g):
                raise LoadError(f"twist key uses unknown 1-morphism {g!r}")
            if self.g2.object_of(a) != self.g1.source[g]:
                raise LoadError(f"twist key ({g!r}, {a!r}) is ill-typed")
            if self.g2.object_of(r) != self.g1.target[g]:
                raise LoadError(f"twist value of ({g!r}, {a!r}) lands at the wrong object")
        if set(self.feedback_table) != set(self.g2.owner):
            raise LoadError("feedback table does not cover the 2-morphisms")
        for a, r in self.feedback_table.items():
            if not self.g1.contains_morphism(r):
                raise LoadError(f"feedback of {a!r} is not a 1-morphism")

    @property
    def objects(self) -> tuple[str, ...]:
        return tuple(self.g1.objects)

    def twist(self, g: str, a: str) -> str:
        """Push the 2-morphism `a` along the 1-morphism `g` (action lookup)."""
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


def validate_crossed(
    C: CrossedGroupoid, bound: int = DEFAULT_CHECK_BOUND
) -> ValidationReport:
    """Check all crossed-groupoid axioms, citing every violated instance.

    Exhaustive whenever the check domain fits within `bound`; larger domains
    (product groups) are checked on a seeded deterministic sample.
    """
    report = ValidationReport()
    report.extend(validate_groupoid(C.g1))
    for x in C.g2.objects:
        report.extend(validate_group(C.g2.group(x), bound), prefix=f"g2({x}): ")

    g1_morphs = C.g1.morphisms

    # twisting is an action by group isomorphisms
    for x in C.objects:
        e = C.g1.identity(x)
        grp = C.g2.group(x)
        for a in _bounded(lambda: iter(grp.elements), len(grp), bound, f"tw-unit{x}"):
            if C.twist(e, a) != a:
                report.add("twist-unit", f"twist(1_{x}, {a}) != {a}")
    for g in g1_morphs:
        grp = C.g2.group(C.g1.src(g))
        n = len(grp)
        seen = set()
        for a in grp:
            seen.add(C.twist(g, a))
        if len(seen) != n:
            report.add("twist-bijective", f"twist({g}, -) is not injective")
        for a, b in _bounded_product([grp.elements, grp.elements], bound, f"tw-hom{g}"):
            lhs = C.twist(g, grp.mul(a, b))
            rhs = C.g2.mul(C.twist(g, a), C.twist(g, b))
            if lhs != rhs:
                report.add(
                    "twist-homomorphism",
                    f"twist({g}, {a} . {b}) != twist({g}, {a}) . twist({g}, {b})",
                )

    n_pairs = sum(len(C.g1.out_of(x)) * len(C.g1.into(x)) for x in C.objects)
    budget = max(1, bound // max(1, n_pairs))
    for h in g1_morphs:
        for g in C.g1.into(C.g1.src(h)):
            grp = C.g2.group(C.g1.src(g))
            for a in _bounded(lambda: iter(grp.elements), len(grp), budget, f"tw-act{h}{g}"):
                if C.twist(C.g1.compose(h, g), a) != C.twist(h, C.twist(g, a)):
                    report.add(
                        "twist-action",
                        f"twist({h} . {g}, {a}) != twist({h}, twist({g}, {a}))",
                    )

    # feedback is a functor landing in automorphism groups
    for x in C.objects:
        grp = C.g2.group(x)
        if C.feedback(grp.identity) != C.g1.identity(x):
            report.add("feedback-unit", f"feedback(1) != 1_{x}")
        for a in grp:
            d = C.feedback(a)
            if C.g1.src(d) != x or C.g1.dst(d) != x:
                report.add("feedback-endpoints", f"feedback({a}) is not an endomorphism at {x}")
        for a, b in _bounded_product([grp.elements, grp.elements], bound, f"fb{x}"):
            if C.feedback(grp.mul(a, b)) != C.g1.compose(C.feedback(a), C.feedback(b)):
                report.add(
                    "feedback-functor",
                    f"feedback({a} . {b}) != feedback({a}) . feedback({b})",
                )

    # equivariance: feedback(twist(g, a)) = g . feedback(a) . g^-1
    n_eq = len(C.twist_table)
    for g, a in _bounded(lambda: iter(C.twist_table), n_eq, bound, "equiv"):
        lhs = C.feedback(C.twist(g, a))
        rhs = C.g1.compose(C.g1.compose(g, C.feedback(a)), C.g1.inverse(g))
        if lhs != rhs:
            report.add(
                "equivariance",
                f"feedback(twist({g}, {a})) != {g} . feedback({a}) . {g}^-1",
            )

    # Peiffer: twist(feedback(a), b) = a . b . a^-1
    for x in C.objects:
        grp = C.g2.group(x)
        for a, b in _bounded_product([grp.elements, grp.elements], bound, f"pf{x}"):
            lhs = C.twist(C.feedback(a), b)
            rhs = grp.mul(grp.mul(a, b), grp.inv(a))
            if lhs != rhs:
                report.add(
                    "peiffer",
                    f"twist(feedback({a}), {b}) != {a} . {b} . {a}^-1",
                )
    return report


# -- morphisms ----------------------------------------------------------


@dataclass
class CrossedMorphism:
    """A map of crossed groupoids: compatible object, 1- and 2-morphism maps."""

    source: CrossedGroupoid
    target: CrossedGroupoid
    obj_map: dict[str, str]
    mor1_map: dict[str, str]
    mor2_map: dict[str, str]

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


def validate_crossed_morphism(
    F: CrossedMorphism, bound: int = DEFAULT_CHECK_BOUND
) -> ValidationReport:
    """Check functoriality and compatibility with twist and feedback."""
    report = ValidationReport()
    S, T = F.source, F.target
    for x in S.objects:
        if F.apply_obj(x) not in set(T.objects):
            report.add("morphism-objects", f"image of object {x} is unknown")
            return report
    # g1 functoriality
    for m in S.g1.morphisms:
        fm = F.apply_mor1(m)
        if not T.g1.contains_morphism(fm):
            report.add("morphism-g1", f"image of {m} is not a 1-morphism")
            continue
        if T.g1.src(fm) != F.apply_obj(S.g1.src(m)) or T.g1.dst(fm) != F.apply_obj(
            S.g1.dst(m)
        ):
            report.add("morphism-g1", f"image of {m} has wrong endpoints")
    for x in S.objects:
        if F.apply_mor1(S.g1.identity(x)) != T.g1.identity(F.apply_obj(x)):
            report.add("morphism-g1", f"identity at {x} not preserved")
    for (h, g), r in S.g1.table.items():
        if T.g1.table.get((F.apply_mor1(h), F.apply_mor1(g))) != F.apply_mor1(r):
            report.add("morphism-g1", f"composition ({h}, {g}) not preserved")
    # g2 homomorphisms per object
    for x in S.objects:
        grp = S.g2.group(x)
        tgrp = T.g2.group(F.apply_obj(x))
        for a in grp:
            if F.apply_mor2(a) not in tgrp:
                report.add("morphism-g2", f"image of {a} is not at the image object")
        if F.apply_mor2(grp.identity) != tgrp.identity:
            report.add("morphism-g2", f"unit of g2({x}) not preserved")
        for a, b in _bounded_product([grp.elements, grp.elements], bound, f"m2{x}"):
            if F.apply_mor2(grp.mul(a, b)) != tgrp.mul(F.apply_mor2(a), F.apply_mor2(b)):
                report.add("morphism-g2", f"product {a} . {b} at {x} not preserved")
    # twist and feedback compatibility
    n_tw = len(S.twist_table)
    for g, a in _bounded(lambda: iter(S.twist_table), n_tw, bound, "mtw"):
        if F.apply_mor2(S.twist(g, a)) != T.twist(F.apply_mor1(g), F.apply_mor2(a)):
            report.add("morphism-twist", f"twist({g}, {a}) not preserved")
    n_fb = len(S.feedback_table)
    for a in _bounded(lambda: iter(S.feedback_table), n_fb, bound, "mfb"):
        if F.apply_mor1(S.feedback(a)) != T.feedback(F.apply_mor2(a)):
            report.add("morphism-feedback", f"feedback({a}) not preserved")
    return report


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


def _feedback_image(C: CrossedGroupoid, x: str) -> set[str]:
    return {C.feedback(a) for a in C.g2.group(x)}


def homotopy(C: CrossedGroupoid) -> HomotopyData:
    """Components of g1, cokernels and kernels of the feedback per object."""
    pi0 = pi0_groupoid(C.g1)
    pi1: dict[str, Pi1] = {}
    pi2: dict[str, tuple[str, ...]] = {}
    for x in C.objects:
        image = sorted(_feedback_image(C, x))
        auts = C.g1.hom(x, x)
        coset_of: dict[str, str] = {}
        for g in auts:
            if g in coset_of:
                continue
            members = sorted(C.g1.compose(g, d) for d in image)
            rep = members[0]
            for m in members:
                coset_of[m] = rep
        reps = tuple(sorted(set(coset_of.values())))

        def mul(a: str, b: str, _c=coset_of, _g1=C.g1) -> str:
            return _c[_g1.compose(a, b)]

        def inv(a: str, _c=coset_of, _g1=C.g1) -> str:
            return _c[_g1.inverse(a)]

        pi1[x] = Pi1(
            reps,
            coset_of,
            FiniteGroup(reps, coset_of[C.g1.identity(x)], mul, inv),
        )
        grp = C.g2.group(x)
        one = C.g1.identity(x)
        pi2[x] = tuple(sorted(a for a in grp if C.feedback(a) == one))
    return HomotopyData(pi0, pi1, pi2)


def is_weak_equivalence_crossed(F: CrossedMorphism) -> tuple[bool, ValidationReport]:
    """True iff F induces a pi0 bijection and pi1/pi2 isomorphisms everywhere.

    The report names every failing invariant at every object.
    """
    report = ValidationReport()
    S, T = F.source, F.target
    hs, ht = homotopy(S), homotopy(T)

    src_blocks = {b[0]: b for b in pi0_blocks(hs.pi0)}
    tgt_blocks = {b[0]: b for b in pi0_blocks(ht.pi0)}
    image_labels = {ht.pi0[F.apply_obj(x)] for x in S.objects}
    label_of_block = {}
    for label, block in src_blocks.items():
        images = {ht.pi0[F.apply_obj(x)] for x in block}
        label_of_block[label] = next(iter(images))
    if len(set(label_of_block.values())) != len(src_blocks):
        report.add("pi0", "induced component map is not injective")
    if image_labels != set(tgt_blocks):
        report.add("pi0", "induced component map is not surjective")

    for x in S.objects:
        y = F.apply_obj(x)
        # pi1: [g] -> [F(g)] must be a bijection of coset representatives
        p1s, p1t = hs.pi1[x], ht.pi1[y]
        induced = {r: p1t.coset_of[F.apply_mor1(r)] for r in p1s.reps}
        if len(set(induced.values())) != len(p1s.reps):
            report.add("pi1", f"induced map on pi1 at {x} is not injective")
        if set(induced.values()) != set(p1t.reps):
            report.add("pi1", f"induced map on pi1 at {x} is not surjective")
        # pi2: kernel to kernel, bijectively
        images = [F.apply_mor2(a) for a in hs.pi2[x]]
        if len(set(images)) != len(images):
            report.add("pi2", f"induced map on pi2 at {x} is not injective")
        if set(images) != set(ht.pi2[y]):
            report.add("pi2", f"induced map on pi2 at {x} is not surjective")
    return report.ok, report
