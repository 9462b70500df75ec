"""Transfer of descent data along diagram morphisms.

Besides the direct image map, this module implements the constructive lifting
of descent data and of gauge transformations along a weak equivalence, and the
two-route bijection verification: an enumeration/counting route and the
constructive route must agree, and a disagreement is raised as a hard error.

Every existential choice in the lifting algorithms is resolved by
least-identifier search, so lifts are deterministic and their traces
reproducible.  `_least` owns that search.  An equation that a chase and
`revalidate_lift_trace` both evaluate is one function that both call.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    _predicted_a,
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
    """All intermediates of one lifting run, re-validatable after the fact."""

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
    G, H = F.source, F.target
    ok, _ = is_descent_datum(H, target)
    if not ok:
        raise DomainError("target triple is not a descent datum")
    y, h, b = target.x, target.g, target.a
    H0, H1 = H.levels[0], H.levels[1]
    trace = LiftTrace("surjectivity", {"target": target})

    # 1. an object of the source hitting the component of y, and a connecting
    #    1-morphism f : y -> F(x); a nonempty hom-set is that component
    x, f = _least(((x, f) for x in sorted(G.levels[0].objects)
                   for f in H0.g1.hom(y, F.levels[0].apply_obj(x))),
                  "component-surjectivity", f"no source object hits the component of {y}")
    y_prime = F.levels[0].apply_obj(x)
    trace.data.update({"x": x, "f": f, "y_prime": y_prime})

    # 2. transport the datum to y' with the trivial 2-component, then complete
    h_pp = _transported(H, f, h)
    c_pp = H1.g2.identity(vertex_object(H, y, 0, 1))
    b_pp, dd_pp = complete_descent(
        H, target, PartialDescentDatum(y_prime, h_pp), GaugeTransformation(f, c_pp)
    )
    trace.data.update({"h_pp": h_pp, "c_pp": c_pp, "b_pp": b_pp})

    # 3. a source 1-morphism g and a correction c' with h'' = F(g) . D(c')
    x0, x1 = vertex_object(G, x, 0, 1), vertex_object(G, x, 1, 1)
    yp0 = vertex_object(H, y_prime, 0, 1)
    g, c_p = _least(((g, c) for g in G.levels[1].g1.hom(x0, x1)
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
    a = _least((a for a in sorted(G2.g2.group(vertex_object(G, x, 0, 2)).elements)
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

    c = H1.g2.inv(H1.twist(H1.g1.inverse(H.face((0,), 1).apply_mor1(f)), c_p))
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


def _transported(H: CrossedDiagram, f: str, h: str) -> str:
    """h'' = f_(1) . h . f_(0)^-1, the 1-morphism h carried along f."""
    f0, f1 = H.face((0,), 1).apply_mor1(f), H.face((1,), 1).apply_mor1(f)
    return H.levels[1].g1.compose_all(f1, h, H.levels[1].g1.inverse(f0))


# -- lifting gauge transformations (injectivity chase) ------------------


def lift_gauge(
    F: DiagramMorphism,
    src: DescentDatum,
    dst: DescentDatum,
    t: GaugeTransformation,
) -> tuple[GaugeTransformation, LiftTrace]:
    """Lift a gauge transformation between images back to the source."""
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

    # 1. least (e, v) with F(e) = f . D(v)
    e, v = _least(((e, v) for e in G.levels[0].g1.hom(src.x, dst.x)
                   for v in sorted(H0.g2.group(y).elements)
                   if F.levels[0].apply_mor1(e) == H0.g1.compose(t.f, H0.feedback(v))),
                  "hom-quotient-surjectivity", "no (e, v) with F(e) = f . D(v)")
    f_tilde = H0.g1.compose(t.f, H0.feedback(v))
    c_tilde = _adjusted_c(H, y_datum.g, t.c, v)
    ok, report = is_gauge(H, GaugeTransformation(f_tilde, c_tilde), y_datum, yp_datum)
    if not ok:
        raise CrossedDescError(f"adjusted gauge fails verification: {report.violations}")
    trace.data.update({"e": e, "v": v, "f_tilde": f_tilde, "c_tilde": c_tilde})

    # 2. least d' with D(d') = g^-1 . e_(1)^-1 . g' . e_(0)
    want = _d_prime_feedback(G, src, dst, e)
    x0 = vertex_object(G, src.x, 0, 1)
    cells = sorted(G1.g2.group(x0).elements)
    d_p = _least((d for d in cells if G1.feedback(d) == want),
                 "cokernel-injectivity", "no d' with the required feedback")
    trace.data["d_p"] = d_p

    # 3. the kernel correction: w = c~ . F(d')^-1, its unique kernel preimage
    w = _kernel_correction(F, c_tilde, d_p)
    y0 = vertex_object(H, y, 0, 1)
    if H1.feedback(w) != H1.g1.identity(y0):
        raise CrossedDescError("kernel correction has nontrivial feedback")
    one = G1.g1.identity(x0)
    v2 = _least((k for k in cells if G1.feedback(k) == one and F.levels[1].apply_mor2(k) == w),
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


def _adjusted_c(H: CrossedDiagram, h: str, c: str, v: str) -> str:
    """c~ = twist(h^-1, v_(1)^-1) . c . v_(0), the 2-component adjusted to f . D(v)."""
    L1 = H.levels[1]
    v0, v1 = H.face((0,), 1).apply_mor2(v), H.face((1,), 1).apply_mor2(v)
    return L1.g2.mul(L1.g2.mul(L1.twist(L1.g1.inverse(h), L1.g2.inv(v1)), c), v0)


def _d_prime_feedback(G: CrossedDiagram, src: DescentDatum, dst: DescentDatum, e: str) -> str:
    """g^-1 . e_(1)^-1 . g' . e_(0), the feedback that d' must have."""
    e0, e1 = G.face((0,), 1).apply_mor1(e), G.face((1,), 1).apply_mor1(e)
    g1 = G.levels[1].g1
    return g1.compose_all(g1.inverse(src.g), g1.inverse(e1), dst.g, e0)


def _kernel_correction(F: DiagramMorphism, c_tilde: str, d_p: str) -> str:
    """w = c~ . F(d')^-1."""
    grp = F.target.levels[1].g2
    return grp.mul(c_tilde, grp.inv(F.levels[1].apply_mor2(d_p)))


# -- trace re-validation ------------------------------------------------


def revalidate_lift_trace(F: DiagramMorphism, trace: LiftTrace) -> ValidationReport:
    """Recompute every recorded equation of a trace from its stored elements,
    and every recorded value from what determines it or the value it repeats."""
    report = ValidationReport()
    G, H = F.source, F.target
    d = trace.data
    if trace.kind == "surjectivity":
        target: DescentDatum = d["target"]
        H1 = H.levels[1]
        if _transported(H, d["f"], target.g) != d["h_pp"]:
            report.add("trace", "transported 1-morphism does not recompute")
        if d["c_pp"] != H1.g2.identity(vertex_object(H, target.x, 0, 1)):
            report.add("trace", "transport 2-component is not the identity")
        if _predicted_a(H, target, GaugeTransformation(d["f"], d["c_pp"])) != d["b_pp"]:
            report.add("trace", "transported 2-cell does not recompute")
        if F.levels[0].apply_obj(d["x"]) != d["y_prime"]:
            report.add("trace", "image object does not recompute")
        if F.levels[1].apply_mor1(d["g"]) != d["h_p"]:
            report.add("trace", "image 1-morphism does not recompute")
        if H1.g1.compose(d["h_p"], H1.feedback(d["c_p"])) != d["h_pp"]:
            report.add("trace", "correction equation h'' = F(g) . D(c') fails")
        lifted: DescentDatum = d["lifted"]
        if lifted != DescentDatum(d["x"], d["g"], d["a"]):
            report.add("trace", "lifted triple is not (x, g, a)")
        if d["witness"] != GaugeTransformation(d["f"], d["c"]):
            report.add("trace", "witness is not (f, c)")
        ok, _ = is_descent_datum(G, lifted)
        if not ok:
            report.add("trace", "lifted triple no longer passes the descent checks")
        if F.levels[2].apply_mor2(lifted.a) != d["b_p"]:
            report.add("trace", "image 2-cell does not recompute")
        if d["u"] != G.levels[3].g2.identity(vertex_object(G, lifted.x, 0, 3)):
            report.add("trace", "recorded defect is not the identity")
        if _second_condition_defect(G, lifted) != d["u"]:
            report.add("trace", "defect does not recompute")
        ok, _ = is_gauge(H, d["witness"], target, apply_morphism(F, lifted))
        if not ok:
            report.add("trace", "witness gauge no longer verifies")
    elif trace.kind == "injectivity":
        src: DescentDatum = d["src"]
        dst: DescentDatum = d["dst"]
        t: GaugeTransformation = d["input"]
        H0 = H.levels[0]
        if d["f_tilde"] != H0.g1.compose(t.f, H0.feedback(d["v"])):
            report.add("trace", "adjusted 1-morphism f . D(v) does not recompute")
        if F.levels[0].apply_mor1(d["e"]) != d["f_tilde"]:
            report.add("trace", "F(e) = f . D(v) fails")
        if _adjusted_c(H, apply_morphism(F, src).g, t.c, d["v"]) != d["c_tilde"]:
            report.add("trace", "adjusted 2-component does not recompute")
        if G.levels[1].feedback(d["d_p"]) != _d_prime_feedback(G, src, dst, d["e"]):
            report.add("trace", "feedback of d' does not recompute")
        w = _kernel_correction(F, d["c_tilde"], d["d_p"])
        if w != d["w"]:
            report.add("trace", "kernel correction does not recompute")
        if F.levels[1].apply_mor2(d["v2"]) != w:
            report.add("trace", "kernel preimage does not recompute")
        if G.levels[1].g2.mul(d["v2"], d["d_p"]) != d["d"]:
            report.add("trace", "final 2-component does not recompute")
        if d["lifted"] != GaugeTransformation(d["e"], d["d"]):
            report.add("trace", "lifted gauge is not (e, d)")
        ok, _ = is_gauge(G, d["lifted"], src, dst)
        if not ok:
            report.add("trace", "lifted gauge no longer verifies")
        if _gauge_condition_defect(G, d["lifted"], src, dst) != d["u"]:
            report.add("trace", "defect does not recompute")
    else:
        report.add("trace", f"unknown trace kind {trace.kind!r}")
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
