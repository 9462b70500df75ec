"""Finite crossed groupoids, 3-truncated semi-cosimplicial diagrams of them,
combinatorial descent data with gauge classification, and constructive
transfer along weak equivalences."""

from .validation import (
    ComposabilityError,
    CrossedDescError,
    DomainError,
    LiftSearchError,
    LoadError,
    ResourceBoundError,
    ValidationReport,
    Violation,
)
from .groupoid import (
    FiniteGroupoid,
    pi0_groupoid,
    validate_groupoid,
)
from .crossed import (
    CrossedGroupoid,
    CrossedMorphism,
    DisconnectedGroupoid,
    FiniteGroup,
    HomotopyData,
    compose_crossed_morphisms,
    homotopy,
    identity_crossed_morphism,
    is_weak_equivalence_crossed,
    validate_crossed,
    validate_crossed_morphism,
    validate_group,
)
from .cosimplicial import (
    CrossedDiagram,
    DiagramMorphism,
    identity_diagram_morphism,
    validate_diagram,
    validate_diagram_morphism,
)
from .descent import (
    ClassTable,
    DescentDatum,
    GaugeTransformation,
    PartialDescentDatum,
    complete_descent,
    enumerate_descent,
    gauge_classes,
    gauge_compose,
    gauge_identity,
    gauge_invert,
    is_descent_datum,
    is_gauge,
)
from .transfer import (
    BijectionReport,
    LiftTrace,
    apply_morphism,
    apply_morphism_gauge,
    is_weak_equivalence_diagram,
    lift_descent,
    lift_gauge,
    revalidate_lift_trace,
    verify_bijection,
)
from .fixtures import (
    FixtureSpec,
    build_fixture,
    cech_diagram,
    constant_diagram,
    crossed_from_normal_subgroup,
    crossed_group,
    cyclic_group,
    fatten,
    fatten_diagram,
    inner_crossed,
    symmetric_group,
    trivial_group,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
