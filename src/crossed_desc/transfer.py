"""Transfer of descent data along diagram morphisms.

Besides the direct image map, this module implements the constructive lifting
of descent data and of gauge transformations along a weak equivalence, and the
two-route bijection verification: an enumeration/counting route and the
constructive route must agree, and a disagreement is raised as a hard error.

Every existential choice in the lifting algorithms is resolved by
least-identifier search, so lifts are deterministic and their traces
reproducible.  `_least` owns that search; `revalidate_lift_trace` replays a
chase with a trace's recorded choices in its place.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from .cosimplicial import CrossedDiagram, DiagramMorphism, _once_each
from .crossed import is_weak_equivalence_crossed
from .descent import (
    ClassTable,
    DescentDatum,
    GaugeTransformation,
    PartialDescentDatum,
    _cocycle_failure,
    _inner_cell,
    _twisted_cocycle_sides,
    complete_descent,
    gauge_classes,
    gauge_compose,
    gauge_invert,
    is_descent_datum,
    is_gauge,
    vertex_object,
)
from .validation import (
    DEFAULT_BOUND,
    CrossedDescError,
    DomainError,
    LiftSearchError,
    ValidationReport,
)


@dataclass
class LiftTrace:
    """The inputs, search-step choices and intermediates of one lift, enough to replay it."""

    kind: str  # "surjectivity" or "injectivity"
    data: dict[str, object] = field(default_factory=dict)

    def as_json(self) -> dict:
        out = {"kind": self.kind}
        for k, v in self.data.items():
            out[k] = v.as_json() if hasattr(v, "as_json") else v
        return out


def apply_morphism(F: DiagramMorphism, t: DescentDatum) -> DescentDatum:
    """The image triple (F(x), F(g), F(a)); always a descent datum."""
    ok, _ = is_descent_datum(F.source, t)
    if not ok:
        raise DomainError("input triple is not a descent datum in the source")
    image = DescentDatum(
        F.levels[0].apply_obj(t.x),
        F.levels[1].apply_mor1(t.g),
        F.levels[2].apply_mor2(t.a),
    )
    ok, report = is_descent_datum(F.target, image)
    if not ok:
        raise CrossedDescError(
            f"image of a descent datum fails the descent checks: {report.violations}"
        )
    return image


def apply_morphism_gauge(F: DiagramMorphism, t: GaugeTransformation) -> GaugeTransformation:
    return GaugeTransformation(F.levels[0].apply_mor1(t.f), F.levels[1].apply_mor2(t.c))


def is_weak_equivalence_diagram(F: DiagramMorphism) -> tuple[bool, ValidationReport]:
    """Levelwise weak-equivalence check; the report names every failing level.

    Each distinct level map is checked once, and its report is extended under
    every level that holds it.  It keeps no verdict: each call checks the
    distinct maps again, whose ends keep their homotopy invariants."""
    report = ValidationReport()
    for p, (_, level_report) in enumerate(_once_each(is_weak_equivalence_crossed, F.levels)):
        report.extend(level_report, prefix=f"level {p}: ")
    return report.ok, report


def _least(candidates: Iterator, step: str, detail: str):
    """The first of `candidates`, a generator of one search step's solutions in sorted
    id order (pairs lexicographically); if it is empty, raise LiftSearchError(step, detail)."""
    for found in candidates:
        return found
    raise LiftSearchError(step, detail)


# -- lifting descent data (surjectivity chase) --------------------------


def lift_descent(
    F: DiagramMorphism, target: DescentDatum
) -> tuple[DescentDatum, GaugeTransformation, LiftTrace]:
    """Lift a target descent datum along a weak equivalence.

    Returns (lifted source datum, gauge transformation in the target from
    `target` to the image of the lift, trace).  The caller is responsible for
    F being a weak equivalence; search exhaustion raises LiftSearchError and
    indicates that it is not, or that the data is corrupt.
    """
    return _chase_descent(F, target, _least)


def _chase_descent(
    F: DiagramMorphism, target: DescentDatum, choose: Callable
) -> tuple[DescentDatum, GaugeTransformation, LiftTrace]:
    """The surjectivity chase, taking each step's solution from `choose`."""
    G, H = F.source, F.target
    ok, _ = is_descent_datum(H, target)
    if not ok:
        raise DomainError("target triple is not a descent datum")
    y, h, b = target.x, target.g, target.a
    H0, H1 = H.levels[0], H.levels[1]
    trace = LiftTrace("surjectivity", {"target": target})

    # 1. an object of the source hitting the component of y, and a connecting
    #    1-morphism f : y -> F(x); a nonempty hom-set is that component
    x, f = choose(((x, f) for x in sorted(G.levels[0].objects)
                   for f in H0.g1.hom(y, F.levels[0].apply_obj(x))),
                  "component-surjectivity", f"no source object hits the component of {y}")
    y_prime = F.levels[0].apply_obj(x)
    trace.data.update({"x": x, "f": f, "y_prime": y_prime})

    # 2. transport the datum to y' with the trivial 2-component, then complete
    f0, f1 = H.face((0,), 1).apply_mor1(f), H.face((1,), 1).apply_mor1(f)
    h_pp = H1.g1.compose_all(f1, h, H1.g1.inverse(f0))
    c_pp = H1.g2.identity(vertex_object(H, y, 0, 1))
    b_pp, dd_pp = complete_descent(
        H, target, PartialDescentDatum(y_prime, h_pp), GaugeTransformation(f, c_pp)
    )
    trace.data.update({"h_pp": h_pp, "c_pp": c_pp, "b_pp": b_pp})

    # 3. a source 1-morphism g and a correction c' with h'' = F(g) . D(c')
    x0, x1 = vertex_object(G, x, 0, 1), vertex_object(G, x, 1, 1)
    yp0 = vertex_object(H, y_prime, 0, 1)
    g, c_p = choose(((g, c) for g in G.levels[1].g1.hom(x0, x1)
                     for c in sorted(H1.g2.group(yp0).elements)
                     if h_pp == H1.g1.compose(F.levels[1].apply_mor1(g), H1.feedback(c))),
                    "hom-quotient-surjectivity", "no (g, c') with h'' = F(g) . D(c')")
    h_p = F.levels[1].apply_mor1(g)
    b_p, dd_p = complete_descent(
        H,
        dd_pp,
        PartialDescentDatum(y_prime, h_p),
        GaugeTransformation(H0.g1.identity(y_prime), H1.g2.inv(c_p)),
    )
    trace.data.update({"g": g, "c_p": c_p, "h_p": h_p, "b_p": b_p})

    # 4. the unique source 2-cell with the prescribed feedback and image
    G2 = G.levels[2]
    want_feedback = _cocycle_failure(G, g)
    a = choose((a for a in sorted(G2.g2.group(vertex_object(G, x, 0, 2)).elements)
                if G2.feedback(a) == want_feedback and F.levels[2].apply_mor2(a) == b_p),
               "fiber-bijectivity", "no 2-cell with the required feedback and image")
    trace.data["a"] = a

    # 5. assemble; the second descent condition follows from pi2-injectivity
    lifted = DescentDatum(x, g, a)
    ok, report = is_descent_datum(G, lifted)
    if not ok:
        raise CrossedDescError(f"lifted triple fails the descent checks: {report.violations}")
    u = _second_condition_defect(G, lifted)
    trace.data["u"] = u
    if u != G.levels[3].g2.identity(vertex_object(G, x, 0, 3)):
        raise CrossedDescError("second-condition defect of the lift is not the identity")

    c = H1.g2.inv(H1.twist(H1.g1.inverse(f0), c_p))
    witness = GaugeTransformation(f, c)
    ok, report = is_gauge(H, witness, target, apply_morphism(F, lifted))
    if not ok:
        raise CrossedDescError(f"lift witness fails the gauge checks: {report.violations}")
    trace.data.update({"c": c, "lifted": lifted, "witness": witness})
    return lifted, witness, trace


def _second_condition_defect(D: CrossedDiagram, t: DescentDatum) -> str:
    """a_(0,1,3)^-1 . a_(0,2,3) . a_(0,1,2) . twist(g_(0,1)^-1, a_(1,2,3))^-1."""
    grp = D.levels[3].g2
    lhs, rhs = _twisted_cocycle_sides(D, t)
    return grp.mul(lhs, grp.inv(rhs))


# -- lifting gauge transformations (injectivity chase) ------------------


def lift_gauge(
    F: DiagramMorphism,
    src: DescentDatum,
    dst: DescentDatum,
    t: GaugeTransformation,
) -> tuple[GaugeTransformation, LiftTrace]:
    """Lift a gauge transformation between images back to the source."""
    return _chase_gauge(F, src, dst, t, _least)


def _chase_gauge(
    F: DiagramMorphism, src: DescentDatum, dst: DescentDatum, t: GaugeTransformation,
    choose: Callable,
) -> tuple[GaugeTransformation, LiftTrace]:
    """The injectivity chase, taking each step's solution from `choose`."""
    G, H = F.source, F.target
    y_datum = apply_morphism(F, src)
    yp_datum = apply_morphism(F, dst)
    ok, _ = is_gauge(H, t, y_datum, yp_datum)
    if not ok:
        raise DomainError("input pair is not a gauge transformation between the images")
    H0, H1 = H.levels[0], H.levels[1]
    G1 = G.levels[1]
    y = y_datum.x
    trace = LiftTrace("injectivity", {"src": src, "dst": dst, "input": t})

    # 1. least (e, v) with F(e) = f . D(v), and c adjusted to f~ = f . D(v)
    e, v = choose(((e, v) for e in G.levels[0].g1.hom(src.x, dst.x)
                   for v in sorted(H0.g2.group(y).elements)
                   if F.levels[0].apply_mor1(e) == H0.g1.compose(t.f, H0.feedback(v))),
                  "hom-quotient-surjectivity", "no (e, v) with F(e) = f . D(v)")
    f_tilde = H0.g1.compose(t.f, H0.feedback(v))
    v0, v1 = H.face((0,), 1).apply_mor2(v), H.face((1,), 1).apply_mor2(v)
    twisted = H1.twist(H1.g1.inverse(y_datum.g), H1.g2.inv(v1))
    c_tilde = H1.g2.mul(H1.g2.mul(twisted, t.c), v0)
    ok, report = is_gauge(H, GaugeTransformation(f_tilde, c_tilde), y_datum, yp_datum)
    if not ok:
        raise CrossedDescError(f"adjusted gauge fails verification: {report.violations}")
    trace.data.update({"e": e, "v": v, "f_tilde": f_tilde, "c_tilde": c_tilde})

    # 2. least d' with D(d') = g^-1 . e_(1)^-1 . g' . e_(0)
    e0, e1 = G.face((0,), 1).apply_mor1(e), G.face((1,), 1).apply_mor1(e)
    want = G1.g1.compose_all(G1.g1.inverse(src.g), G1.g1.inverse(e1), dst.g, e0)
    x0 = vertex_object(G, src.x, 0, 1)
    cells = sorted(G1.g2.group(x0).elements)
    d_p = choose((d for d in cells if G1.feedback(d) == want),
                 "cokernel-injectivity", "no d' with the required feedback")
    trace.data["d_p"] = d_p

    # 3. the kernel correction: w = c~ . F(d')^-1, its unique kernel preimage
    w = H1.g2.mul(c_tilde, H1.g2.inv(F.levels[1].apply_mor2(d_p)))
    y0 = vertex_object(H, y, 0, 1)
    if H1.feedback(w) != H1.g1.identity(y0):
        raise CrossedDescError("kernel correction has nontrivial feedback")
    one = G1.g1.identity(x0)
    v2 = choose((k for k in cells if G1.feedback(k) == one and F.levels[1].apply_mor2(k) == w),
                "kernel-bijectivity", "no kernel element mapping onto the correction")
    d = G1.g2.mul(v2, d_p)
    trace.data.update({"w": w, "v2": v2, "d": d})

    lifted = GaugeTransformation(e, d)
    ok, report = is_gauge(G, lifted, src, dst)
    if not ok:
        raise CrossedDescError(f"lifted gauge fails verification: {report.violations}")
    u = _gauge_condition_defect(G, lifted, src, dst)
    trace.data["u"] = u
    if u != G.levels[2].g2.identity(vertex_object(G, src.x, 0, 2)):
        raise CrossedDescError("gauge-condition defect of the lift is not the identity")
    trace.data["lifted"] = lifted
    return lifted, trace


def _gauge_condition_defect(
    D: CrossedDiagram, t: GaugeTransformation, src: DescentDatum, dst: DescentDatum
) -> str:
    """twist(e_(0)^-1, a')^-1 . d_(0,2)^-1 . a . twist(g_(0,1)^-1, d_(1,2)) . d_(0,1)."""
    L2 = D.levels[2]
    grp = L2.g2
    e0 = D.face((0,), 2).apply_mor1(t.f)
    d01 = D.face((0, 1), 2).apply_mor2(t.c)
    d02 = D.face((0, 2), 2).apply_mor2(t.c)
    d12 = D.face((1, 2), 2).apply_mor2(t.c)
    g01 = D.face((0, 1), 2).apply_mor1(src.g)
    head = grp.inv(L2.twist(L2.g1.inverse(e0), dst.a))
    return grp.mul(head, _inner_cell(L2, src.a, g01, d01, d02, d12))


# -- trace re-validation ------------------------------------------------


# the fields each search step of a chase records, in step order
_CHOICES = {
    "surjectivity": (("x", "f"), ("g", "c_p"), ("a",)),
    "injectivity": (("e", "v"), ("d_p",), ("v2",)),
}


def revalidate_lift_trace(F: DiagramMorphism, trace: LiftTrace) -> ValidationReport:
    """Replay the trace's chase on its recorded inputs and choices, and compare
    every recorded field with the replay's.  A choice must solve its step, not
    be the least solution; one that does not is reported under its step."""
    report = ValidationReport()
    d = trace.data
    if trace.kind not in _CHOICES:
        report.add("trace", f"unknown trace kind {trace.kind!r}")
        return report
    steps = iter(_CHOICES[trace.kind])

    def recorded(candidates: Iterator, step: str, detail: str):
        names = next(steps)
        choice = tuple(d[name] for name in names) if len(names) > 1 else d[names[0]]
        return _least((c for c in candidates if c == choice), step,
                      f"the recorded {', '.join(names)} = {choice!r} is not a solution")

    try:
        if trace.kind == "surjectivity":
            replayed = _chase_descent(F, d["target"], recorded)[-1]
        else:
            replayed = _chase_gauge(F, d["src"], d["dst"], d["input"], recorded)[-1]
    except CrossedDescError as exc:
        report.add("trace", str(exc))
        return report
    for name, value in replayed.data.items():
        if d.get(name) != value:
            report.add("trace", f"recorded {name} does not recompute")
    return report


# -- bijection verification ---------------------------------------------


@dataclass
class BijectionReport:
    source_classes: ClassTable
    target_classes: ClassTable
    class_map: dict[DescentDatum, DescentDatum]
    surjectivity: dict[DescentDatum, tuple[DescentDatum, GaugeTransformation, LiftTrace]]
    injectivity: dict[
        tuple[DescentDatum, DescentDatum], tuple[GaugeTransformation, LiftTrace]
    ]
    oracle_bijective: bool
    constructive_bijective: bool

    @property
    def agree(self) -> bool:
        return self.oracle_bijective == self.constructive_bijective

    def as_json(self, include_traces: bool = False) -> dict:
        out = {
            "sourceClasses": len(self.source_classes.reps),
            "targetClasses": len(self.target_classes.reps),
            "classMap": [
                {"source": s.as_json(), "target": t.as_json()}
                for s, t in sorted(self.class_map.items())
            ],
            "oracleBijective": self.oracle_bijective,
            "constructiveBijective": self.constructive_bijective,
            "agree": self.agree,
        }
        if include_traces:
            out["surjectivityWitnesses"] = [
                trace.as_json() for _, _, trace in self.surjectivity.values()
            ]
            out["injectivityWitnesses"] = [
                trace.as_json() for _, trace in self.injectivity.values()
            ]
        return out


def verify_bijection(F: DiagramMorphism, bound: int = DEFAULT_BOUND) -> BijectionReport:
    """Check the induced map on gauge classes two independent ways.

    The enumeration route classifies both sides and inspects the induced map
    on representatives; the constructive route lifts every target class and
    every image collision.  A disagreement raises a hard error.
    """
    ok, report = is_weak_equivalence_diagram(F)
    if not ok:
        raise DomainError(f"not a weak equivalence: {[v.detail for v in report]}")
    return _verify_bijection(F, bound)


def _verify_bijection(F: DiagramMorphism, bound: int) -> BijectionReport:
    """`verify_bijection` on an F already checked to be a weak equivalence."""
    src_classes = gauge_classes(F.source, bound)
    tgt_classes = gauge_classes(F.target, bound)

    class_map = {
        r: tgt_classes.rep_of[apply_morphism(F, r)] for r in src_classes.reps
    }
    oracle_injective = len(set(class_map.values())) == len(class_map)
    oracle_surjective = set(class_map.values()) == set(tgt_classes.reps)
    oracle_bijective = oracle_injective and oracle_surjective

    # constructive surjectivity: lift a representative of every target class
    surjectivity = {}
    constructive_surjective = True
    for tr in tgt_classes.reps:
        try:
            surjectivity[tr] = lift_descent(F, tr)
        except LiftSearchError:
            constructive_surjective = False

    # constructive injectivity: merge source classes whose images collide.
    # The collision groups are disjoint and each merges into its least member,
    # so once every lift succeeds there are len(collisions) merged classes.
    injectivity = {}
    collisions: dict[DescentDatum, list[DescentDatum]] = {}
    for s, t in class_map.items():
        collisions.setdefault(t, []).append(s)
    constructive_injective = True
    for group in collisions.values():
        group = sorted(group)
        base = group[0]
        for other in group[1:]:
            t = _target_gauge_between_images(F, tgt_classes, other, base)
            try:
                injectivity[(other, base)] = lift_gauge(F, other, base, t)
            except LiftSearchError:
                constructive_injective = False
    constructive_bijective = (
        constructive_surjective
        and constructive_injective
        and len(collisions) == len(tgt_classes.reps)
    )

    result = BijectionReport(
        src_classes,
        tgt_classes,
        class_map,
        surjectivity,
        injectivity,
        oracle_bijective,
        constructive_bijective,
    )
    if not result.agree:
        raise CrossedDescError(
            "bijection routes disagree: "
            f"oracle={oracle_bijective}, constructive={constructive_bijective}"
        )
    return result


def _target_gauge_between_images(
    F: DiagramMorphism,
    tgt_classes: ClassTable,
    src_a: DescentDatum,
    src_b: DescentDatum,
) -> GaugeTransformation:
    """A verified target gauge F(src_a) -> F(src_b), via the class witnesses."""
    H = F.target
    ia, ib = apply_morphism(F, src_a), apply_morphism(F, src_b)
    wa = tgt_classes.witnesses[ia]  # ia -> rep
    wb = tgt_classes.witnesses[ib]  # ib -> rep
    t = gauge_compose(H, gauge_invert(H, wb), wa)
    ok, report = is_gauge(H, t, ia, ib)
    if not ok:
        raise CrossedDescError(f"composed target gauge fails verification: {report.violations}")
    return t
